//! Property tests for the lint baseline reader, which parses whatever
//! `baseline.json` is committed: no input text makes it panic, and every
//! set of counts survives a write and a read.

use proptest::prelude::*;
use twrs_lint::baseline::{from_json, to_json, Counts};

/// Characters file and rule names are drawn from, including every one the
/// writer must escape or the reader could trip on.
const NAME_CHARS: [char; 12] = ['a', 'Z', '/', '.', '"', '\\', '\n', ' ', '{', ',', ':', 'é'];

/// Baseline pieces, `|`-separated, so generated texts reach deep into the
/// reader instead of failing on their first byte.
const PIECES: &str = "{|}|[|]|,|:|\"|\\| |\n|7|\"format\"|\"twrs-lint-baseline/v1\"|\"grandfathered\"|\"file\"|\"count\"";

fn name(picks: &[usize]) -> String {
    picks.iter().map(|&i| NAME_CHARS[i]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, decoded as lossy UTF-8, read to `Ok` or `Err`.
    #[test]
    fn arbitrary_text_never_panics_the_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = from_json(&String::from_utf8_lossy(&bytes));
    }

    /// Texts assembled from baseline fragments read to `Ok` or `Err`.
    #[test]
    fn baseline_like_text_never_panics_the_reader(
        picks in prop::collection::vec(any::<usize>(), 0..48),
    ) {
        let pieces: Vec<&str> = PIECES.split('|').collect();
        let text: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        let _ = from_json(&text);
    }

    /// Whatever `to_json` writes, `from_json` reads back unchanged — names
    /// with quotes, backslashes and newlines included.
    #[test]
    fn counts_round_trip_through_the_baseline_text(
        entries in prop::collection::vec(
            (
                prop::collection::vec(0..NAME_CHARS.len(), 0..8),
                prop::collection::vec(0..NAME_CHARS.len(), 0..8),
                any::<usize>(),
            ),
            0..6,
        ),
    ) {
        let counts: Counts = entries
            .iter()
            .map(|(file, rule, count)| ((name(file), name(rule)), *count))
            .collect();
        prop_assert_eq!(from_json(&to_json(&counts)), Ok(counts));
    }
}
