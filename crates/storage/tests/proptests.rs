//! Property-based tests for the storage substrate: forward and reverse run
//! files must round-trip arbitrary record sequences, run readers must never
//! panic on whatever header bytes a damaged file holds, and the device-spec
//! parser, which reads whatever text a CLI is given, must never panic.

use proptest::prelude::*;
use twrs_storage::{
    DeviceSpec, DiskModel, ReverseRunWriter, RunReader, RunWriter, SimDevice, StorageDevice,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward run files return exactly what was written, in order, for any
    /// page size and record count.
    #[test]
    fn forward_run_files_round_trip(
        values in prop::collection::vec(any::<u64>(), 0..2_000),
        page_size_pow in 5u32..9, // 32..256 bytes per page
    ) {
        let device = SimDevice::custom(1usize << page_size_pow, DiskModel::default());
        let mut writer = RunWriter::<u64>::create(&device, "run").unwrap();
        for v in &values {
            writer.push(v).unwrap();
        }
        prop_assert_eq!(writer.finish().unwrap(), values.len() as u64);

        let mut reader = RunReader::<u64>::open(&device, "run").unwrap();
        prop_assert_eq!(reader.len(), values.len() as u64);
        prop_assert_eq!(reader.read_all().unwrap(), values);
    }

    /// The Appendix A reverse-file format returns a decreasing input stream
    /// in ascending order, for any part-file size.
    #[test]
    fn reverse_run_files_round_trip(
        mut values in prop::collection::vec(any::<u64>(), 0..2_000),
        pages_per_file in 2u64..10,
    ) {
        values.sort_unstable_by(|a, b| b.cmp(a)); // decreasing input stream
        let device = SimDevice::custom(64, DiskModel::default());
        let mut writer =
            ReverseRunWriter::<u64>::with_pages_per_file(&device, "rev", pages_per_file).unwrap();
        for v in &values {
            writer.push(v).unwrap();
        }
        prop_assert_eq!(writer.finish().unwrap(), values.len() as u64);

        let mut reader = RunReader::<u64>::open_reverse(&device, "rev").unwrap();
        let mut expected = values;
        expected.reverse(); // ascending
        prop_assert_eq!(reader.read_all().unwrap(), expected);
    }

    /// Page files behave like an array of pages: the last write to an index
    /// wins and sparse gaps read back as zeroes.
    #[test]
    fn page_files_behave_like_a_page_array(
        writes in prop::collection::vec((0u64..32, any::<u8>()), 1..64),
    ) {
        let page_size = 128;
        let device = SimDevice::custom(page_size, DiskModel::default());
        let mut file = device.create("pages").unwrap();
        let mut expected = std::collections::HashMap::new();
        for (index, fill) in &writes {
            let page = vec![*fill; page_size];
            file.write_page(*index, &page).unwrap();
            expected.insert(*index, *fill);
        }
        let pages = file.num_pages();
        prop_assert_eq!(pages, writes.iter().map(|(i, _)| i + 1).max().unwrap());
        let mut buf = vec![0u8; page_size];
        for index in 0..pages {
            file.read_page(index, &mut buf).unwrap();
            let want = expected.get(&index).copied().unwrap_or(0);
            prop_assert!(buf.iter().all(|b| *b == want), "page {index} mismatch");
        }
    }
}

/// The run-file magics ("TWRS" forward, "RWRS" reverse).
const FORWARD_MAGIC: u32 = 0x5457_5253;
const REVERSE_MAGIC: u32 = 0x5257_5253;
/// 64-byte pages hold 8 `u64` records.
const PAGE: usize = 64;

/// Writes a file whose page 0 is `header` followed by `data_pages` pages of
/// filler bytes.
fn write_raw(device: &SimDevice, name: &str, header: &[u8], data_pages: u64) {
    let mut page = vec![0u8; PAGE];
    page[..header.len()].copy_from_slice(header);
    let mut file = device.create(name).unwrap();
    file.write_page(0, &page).unwrap();
    for index in 1..=data_pages {
        file.write_page(index, &[0x5A; PAGE]).unwrap();
    }
}

/// Header bytes from `raw`; with `valid` set, the magic and record size a
/// `u64` reader expects, and with `small` set, counts and positions near
/// the file's real size, so both the checks and the reads are reached.
fn header_bytes(magic: u32, raw: &[u64], valid: bool, small: bool) -> Vec<u8> {
    let mut bytes: Vec<u8> = raw.iter().flat_map(|w| w.to_le_bytes()).collect();
    if valid {
        bytes[0..4].copy_from_slice(&magic.to_le_bytes());
        bytes[4..8].copy_from_slice(&8u32.to_le_bytes());
    }
    if small {
        // Forward: count at 8. Reverse: start page at 16, start slot at 24,
        // count at 28.
        let near = |at: usize, bound: u64, bytes: &mut Vec<u8>| {
            let value = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) % bound;
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        };
        if magic == FORWARD_MAGIC {
            near(8, 48, &mut bytes);
        } else {
            near(16, 8, &mut bytes);
            bytes[24..28].copy_from_slice(&((raw[3] % 10) as u32).to_le_bytes());
            near(28, 48, &mut bytes);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A forward run whose header holds arbitrary bytes opens with an error
    /// or reads exactly the count it claims; it never panics.
    #[test]
    fn arbitrary_forward_headers_never_panic(
        raw in prop::collection::vec(any::<u64>(), 2..3),
        valid in any::<bool>(),
        small in any::<bool>(),
        data_pages in 0u64..5,
    ) {
        let device = SimDevice::custom(PAGE, DiskModel::default());
        write_raw(&device, "run", &header_bytes(FORWARD_MAGIC, &raw, valid, small), data_pages);
        if let Ok(mut reader) = RunReader::<u64>::open(&device, "run") {
            let claimed = reader.len();
            prop_assert!(claimed <= data_pages * 8);
            prop_assert_eq!(reader.read_all().unwrap().len() as u64, claimed);
        }
    }

    /// A reverse run whose part headers hold arbitrary bytes opens with an
    /// error or reads exactly the count it claims; it never panics.
    #[test]
    fn arbitrary_reverse_headers_never_panic(
        raw in prop::collection::vec(any::<u64>(), 10..11),
        parts in 1usize..3,
        valid in any::<bool>(),
        small in any::<bool>(),
        data_pages in 0u64..6,
    ) {
        let device = SimDevice::custom(PAGE, DiskModel::default());
        for part in 0..parts {
            let header = header_bytes(REVERSE_MAGIC, &raw[part * 5..part * 5 + 5], valid, small);
            write_raw(&device, &format!("rev.part{part}"), &header, data_pages);
        }
        if let Ok(mut reader) = RunReader::<u64>::open_reverse(&device, "rev") {
            let claimed = reader.len();
            prop_assert!(claimed <= parts as u64 * data_pages * 8);
            prop_assert_eq!(reader.read_all().unwrap().len() as u64, claimed);
        }
    }
}

/// Spec pieces, `|`-separated, so generated texts reach every branch of
/// the device-spec grammar instead of failing on their first byte.
const SPEC_STARTS: &str = "sim|real|striped|striped:[|striped:2|";
const SPEC_PIECES: &str = ":|,|[|]| |:sim|:real|:striped|,sim|,real:/b|:nvme|:pmem|:hdd-7200|:4096|:8192|:0|:/x|:/x:1|:3|:18446744073709551615|é|:-1";

fn piece(pieces: &str, index: usize) -> &str {
    let pieces: Vec<&str> = pieces.split('|').collect();
    pieces[index % pieces.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, decoded as lossy UTF-8, parse to `Ok` or `Err`.
    #[test]
    fn arbitrary_text_never_panics_the_spec_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = String::from_utf8_lossy(&bytes).parse::<DeviceSpec>();
    }

    /// Texts assembled from spec fragments parse to `Ok` or `Err`, and
    /// every spec that parses reads back from its `Display` as itself.
    #[test]
    fn spec_like_text_never_panics_and_round_trips(
        start in any::<usize>(),
        picks in prop::collection::vec(any::<usize>(), 0..10),
    ) {
        let text: String = std::iter::once(piece(SPEC_STARTS, start))
            .chain(picks.iter().map(|&i| piece(SPEC_PIECES, i)))
            .collect();
        if let Ok(spec) = text.parse::<DeviceSpec>() {
            let shown = spec.to_string();
            prop_assert_eq!(shown.parse::<DeviceSpec>().ok(), Some(spec), "{text:?} → {shown:?}");
        }
    }
}

#[test]
fn former_spec_parser_defects_are_errors() {
    // Used to panic with "capacity overflow" while allocating the members.
    assert!("striped:18446744073709551615:sim"
        .parse::<DeviceSpec>()
        .is_err());
    // Used to parse as path `/x:1`, which displays as `real:/x:1` and reads
    // back as path `/x` with 1-byte pages.
    assert!("real:/x:1:4096".parse::<DeviceSpec>().is_err());
}
