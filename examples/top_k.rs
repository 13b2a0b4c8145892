//! Top-k over a lazily merged sort: no final output file, no final write
//! pass.
//!
//! ```text
//! cargo run --release --example top_k
//! ```
//!
//! A top-k query wants the k smallest records of a large input — it never
//! needs the sorted file itself. The classic pipeline (`run_file`) still
//! pays a full write pass to produce that file; `stream_iter` suspends the
//! final k-way merge into a `SortedStream` instead, so the query reads the
//! first k records straight out of the merge and stops. The example runs
//! both shapes over the same input and prints the pages each one wrote,
//! with the saved final pass called out explicitly.

use two_way_replacement_selection::prelude::*;

fn main() {
    let records: u64 = 500_000;
    let memory: usize = 5_000;
    let k = 10;

    let input = || Distribution::new(DistributionKind::RandomUniform, records, 7).records();
    println!("input: {records} random records, top-{k} query\n");

    // --- Classic shape: sort to a file, read the first k ----------------
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(memory));
    let file_report = SortJob::new(twrs)
        .on(&device)
        .run_iter(input(), "sorted")
        .expect("file sort succeeds");
    let mut reader = RunReader::<Record>::open(&device, "sorted").expect("open sorted output");
    let mut top_from_file = Vec::with_capacity(k);
    for _ in 0..k {
        top_from_file.push(reader.next_record().expect("read").expect("enough records"));
    }
    println!(
        "run_iter  : {:>6} pages written total, {:>5} of them in the final pass",
        file_report.total_pages_written(),
        file_report.final_pass_pages_written()
    );

    // --- Streaming shape: suspend the final merge -----------------------
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let twrs = TwoWayReplacementSelection::new(TwrsConfig::recommended(memory));
    let stream = SortJob::new(twrs)
        .on(&device)
        .stream_iter(input())
        .expect("stream sort succeeds");
    let stream_report = stream.report().clone();
    let top_from_stream: Vec<Record> = stream
        .take(k)
        .collect::<Result<_, _>>()
        .expect("stream yields records");
    println!(
        "stream_iter: {:>6} pages written total, {:>5} in the final pass ({:?})",
        stream_report.total_pages_written(),
        stream_report.final_pass_pages_written(),
        stream_report.final_pass
    );

    assert_eq!(
        top_from_file, top_from_stream,
        "both shapes agree on the top-{k}"
    );
    assert_eq!(stream_report.final_pass_pages_written(), 0);
    // The abandoned stream removed its spill files when it was dropped.
    assert!(device.list().is_empty(), "no leftover files after drop");

    let saved = file_report.final_pass_pages_written();
    println!(
        "\ntop-{k} keys: {:?}",
        top_from_stream.iter().map(|r| r.key).collect::<Vec<_>>()
    );
    println!("final write pass saved by streaming: {saved} pages");
}
