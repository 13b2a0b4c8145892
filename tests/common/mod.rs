//! Helpers shared by the facade integration suites.

use two_way_replacement_selection::prelude::*;

/// Every page of `name` on `device`, so comparisons cover the exact bytes
/// (headers, payloads and trailing-page padding included).
pub fn file_bytes<D: StorageDevice + ?Sized>(device: &D, name: &str) -> Vec<u8> {
    let mut file = device.open(name).expect("output exists");
    let mut bytes = Vec::new();
    let mut page = vec![0u8; device.page_size()];
    for index in 0..file.num_pages() {
        file.read_page(index, &mut page).expect("page readable");
        bytes.extend_from_slice(&page);
    }
    bytes
}
