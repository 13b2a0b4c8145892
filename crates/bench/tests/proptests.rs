//! Property tests for the bench suite's hand-rolled JSON parser, which
//! reads whatever file `bench_suite --baseline` is pointed at: no input
//! text makes it panic.

use proptest::prelude::*;
use twrs_bench::suite::Json;

/// Fragments JSON is made of, so generated texts reach deep into the
/// parser instead of failing on their first byte.
const TOKENS: [&str; 20] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u00e4", "\\ud800", "0", "-", "1.5e3", "e", "true",
    "nul", " ", "\n", "ä", "\"k\":",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, decoded as lossy UTF-8, parse to `Ok` or `Err`.
    #[test]
    fn arbitrary_text_never_panics_the_parser(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    /// Texts assembled from JSON fragments parse to `Ok` or `Err`, and
    /// whatever parses renders back to the same value.
    #[test]
    fn json_like_text_never_panics_the_parser(
        picks in prop::collection::vec(0..TOKENS.len(), 0..256),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        if let Ok(value) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&value.render()), Ok(value));
        }
    }
}
