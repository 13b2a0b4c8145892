//! Spill-file lifecycle regressions: a half-consumed `SortedStream` and a
//! failing `RecordSink` must both leave the device with no run, spill or
//! intermediate-merge files — streaming consumers may abandon a sort at any
//! point, and a leak here would accumulate across every top-k query.

use two_way_replacement_selection::prelude::*;

/// A sink that accepts `limit` records and then fails, simulating a
/// consumer that dies mid-drain.
struct FailingSink {
    accepted: u64,
    limit: u64,
}

impl RecordSink<Record> for FailingSink {
    fn push(&mut self, _record: Record) -> two_way_replacement_selection::extsort::Result<()> {
        if self.accepted == self.limit {
            return Err(
                two_way_replacement_selection::extsort::SortError::SinkClosed(
                    "injected sink failure".into(),
                ),
            );
        }
        self.accepted += 1;
        Ok(())
    }
}

fn multi_run_input() -> impl Iterator<Item = Record> {
    // Small memory budget against 8k records guarantees many runs, so the
    // stream actually owns on-device spill files while suspended.
    Distribution::new(DistributionKind::RandomUniform, 8_000, 31).records()
}

/// 2WRS whose reverse streams take one data page (256 records) per part
/// file. Over [`alternating_input`] its descending stretches make reverse
/// runs of several `.partN` files each, at one thread and at four.
fn twrs_with_small_parts() -> TwoWayReplacementSelection {
    let mut config = TwrsConfig::recommended(100);
    config.reverse_pages_per_file = 2;
    TwoWayReplacementSelection::new(config)
}

/// Four sections of 2,000 records, two of them descending.
fn alternating_input() -> impl Iterator<Item = Record> {
    Distribution::new(DistributionKind::Alternating { sections: 4 }, 8_000, 31).records()
}

/// Abandons a stream after 100 records, at 1 and 4 threads.
fn drop_half_consumed<G, I>(generator: impl Fn() -> G, input: fn() -> I, reverse_parts: bool)
where
    G: ShardableGenerator,
    I: Iterator<Item = Record>,
{
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut stream = SortJob::new(generator())
            .on(&device)
            .threads(threads)
            .stream_iter(input())
            .expect("sort runs");
        // The suspended merge really is backed by files on the device.
        assert!(
            !device.list().is_empty(),
            "threads {threads}: a multi-run sort keeps spill files while suspended"
        );
        if reverse_parts {
            assert!(
                device.list().iter().any(|name| name.ends_with(".part1")),
                "threads {threads}: a reverse run spans several part files"
            );
        }
        // Consume a prefix only, then abandon the stream.
        for _ in 0..100 {
            stream
                .next()
                .expect("stream has records")
                .expect("no error");
        }
        drop(stream);
        assert_eq!(
            device.list(),
            Vec::<String>::new(),
            "threads {threads}: early drop must remove every remaining file"
        );
    }
}

#[test]
fn dropping_a_half_consumed_stream_removes_all_device_files() {
    drop_half_consumed(|| ReplacementSelection::new(100), multi_run_input, false);
    drop_half_consumed(twrs_with_small_parts, alternating_input, true);
}

#[test]
fn closing_a_stream_early_reports_cleanup_success() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let mut stream = SortJob::new(LoadSortStore::new(100))
        .on(&device)
        .stream_iter(multi_run_input())
        .expect("sort runs");
    stream
        .next()
        .expect("stream has records")
        .expect("no error");
    stream.close().expect("cleanup succeeds");
    assert_eq!(device.list(), Vec::<String>::new());
}

/// Drains a sort into a sink that fails after 50 records, at 1 and 4
/// threads.
fn fail_the_sink<G, I>(generator: impl Fn() -> G, input: fn() -> I)
where
    G: ShardableGenerator,
    I: Iterator<Item = Record>,
{
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let mut sink = FailingSink {
            accepted: 0,
            limit: 50,
        };
        let result = SortJob::new(generator())
            .on(&device)
            .threads(threads)
            .sink_iter(input(), &mut sink);
        assert!(
            matches!(
                result,
                Err(two_way_replacement_selection::extsort::SortError::SinkClosed(_))
            ),
            "threads {threads}: the injected failure surfaces"
        );
        assert_eq!(sink.accepted, 50);
        assert_eq!(
            device.list(),
            Vec::<String>::new(),
            "threads {threads}: a failed sink drain must remove every spill file"
        );
    }
}

#[test]
fn a_failing_sink_write_removes_all_device_files() {
    fail_the_sink(|| ReplacementSelection::new(100), multi_run_input);
    fail_the_sink(twrs_with_small_parts, alternating_input);
}

#[test]
fn a_receiver_hangup_mid_drain_aborts_promptly_and_cleans_up() {
    // Regression: a `ChannelSink` whose receiver drops mid-drain must
    // surface `SinkClosed` promptly — including on the parallel path,
    // where the final merge is fed by background prefetch threads that
    // must be torn down, not waited on — and leave no spill files behind.
    for threads in [1, 4] {
        let device = SimDevice::with_model(ModelId::Hdd7200);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Record>(8);
        let consumer = std::thread::spawn(move || {
            // Take k records, then hang up with the merge still producing.
            let mut taken = 0u64;
            for _record in rx.iter().take(200) {
                taken += 1;
            }
            taken
        });
        let mut sink = ChannelSink::new(tx);
        let started = std::time::Instant::now();
        let result = SortJob::new(ReplacementSelection::new(100))
            .on(&device)
            .threads(threads)
            .sink_iter(multi_run_input(), &mut sink);
        assert!(
            matches!(
                result,
                Err(two_way_replacement_selection::extsort::SortError::SinkClosed(_))
            ),
            "threads {threads}: the hangup surfaces as SinkClosed, got {result:?}"
        );
        assert_eq!(consumer.join().unwrap(), 200);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "threads {threads}: the abort must be prompt, not a stuck merge"
        );
        assert_eq!(
            device.list(),
            Vec::<String>::new(),
            "threads {threads}: a hung-up drain must remove every spill file"
        );
    }
}

#[test]
fn a_stream_over_a_truncated_dataset_cleans_up_and_errors() {
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let dist = Distribution::new(DistributionKind::RandomUniform, 3_000, 5);
    two_way_replacement_selection::workloads::materialize(&device, "input", dist.records())
        .unwrap();
    // Truncate the dataset below what its header claims, which opening it
    // rejects before the sort starts.
    let pages = device.open("input").unwrap().num_pages();
    let mut truncated = Vec::new();
    {
        let mut file = device.open("input").unwrap();
        let mut page = vec![0u8; device.page_size()];
        for index in 0..pages.saturating_sub(2) {
            file.read_page(index, &mut page).unwrap();
            truncated.push(page.clone());
        }
    }
    device.remove("input").unwrap();
    let mut file = device.create("input").unwrap();
    for (index, page) in truncated.iter().enumerate() {
        file.write_page(index as u64, page).unwrap();
    }
    file.flush().unwrap();

    let result = SortJob::new(ReplacementSelection::new(100))
        .on(&device)
        .stream_file("input");
    assert!(result.is_err(), "the truncated read must surface");
    assert_eq!(
        device.list(),
        vec!["input".to_string()],
        "only the caller's dataset survives a failed stream_file"
    );
}
