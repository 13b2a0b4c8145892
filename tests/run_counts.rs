//! Every run handle carries the exact number of records its files hold, as
//! the writer that closed the run counted them: RS and LSS forward runs,
//! and 2WRS chains whose reverse streams spread over several part files.
//! The merge planner orders runs by these counts without reading a page.

use two_way_replacement_selection::prelude::*;

/// Generates runs over `input` on a fresh simulated disk and checks every
/// handle's count against the headers of its files; returns the handles
/// and the names of the files they left.
fn check_counts(
    generator: &mut impl RunGenerator,
    input: Vec<Record>,
) -> (Vec<RunHandle>, Vec<String>) {
    let label = generator.label();
    let device = SimDevice::with_model(ModelId::Hdd7200);
    let namer = SpillNamer::new("counts");
    let total = input.len() as u64;
    let set = generator
        .generate(&device, &namer, &mut input.into_iter())
        .expect("generation runs");
    assert_eq!(set.records, total, "{label}");
    for run in &set.runs {
        let reader = run.open::<Record>(&device).expect("run opens");
        assert_eq!(run.records(), reader.len(), "{label} {}", run.name());
        for part in run.physical() {
            let reader = match part {
                RunHandle::Forward { name, .. } => RunReader::<Record>::open(&device, name),
                RunHandle::Reverse { name, .. } => RunReader::open_reverse(&device, name),
                RunHandle::Chain(_) => unreachable!("physical handles name files"),
            }
            .expect("part opens");
            assert_eq!(part.records(), reader.len(), "{label} {}", part.name());
        }
    }
    let sum: u64 = set.runs.iter().map(RunHandle::records).sum();
    assert_eq!(sum, set.records, "{label}");
    (set.runs, device.list())
}

fn random(records: u64) -> Vec<Record> {
    Distribution::new(DistributionKind::RandomUniform, records, 7).collect()
}

#[test]
fn rs_and_lss_handles_count_their_records_exactly() {
    let (runs, _) = check_counts(&mut ReplacementSelection::new(200), random(5_000));
    assert!(runs.len() > 5);
    let (runs, _) = check_counts(&mut LoadSortStore::new(300), random(5_000));
    assert_eq!(runs.len(), 17);
}

#[test]
fn twrs_chains_over_part_files_count_their_records_exactly() {
    let mut config = TwrsConfig::recommended(100);
    config.reverse_pages_per_file = 2;
    let input = Distribution::new(DistributionKind::Alternating { sections: 4 }, 8_000, 31);
    let (runs, files) = check_counts(
        &mut TwoWayReplacementSelection::new(config),
        input.collect(),
    );
    assert!(runs.iter().any(|run| matches!(run, RunHandle::Chain(_))));
    assert!(
        files.iter().any(|name| name.ends_with(".part1")),
        "a reverse stream spans part files: {files:?}"
    );
}
