//! Property tests for the lint's source scanner, which reads every library
//! file of the workspace: no input text makes the lexer or the rules panic.

use proptest::prelude::*;
use twrs_lint::check_source;

/// Source pieces, `|`-separated, that open, close or escape the lexer's
/// comment, literal, attribute and waiver states, so generated texts reach
/// deep into the scanner instead of being one long identifier.
const PIECES: &str = "\"|'|r#\"|\"#|b'|br\"|\\|//|/*|*/|\n| |#|[|]|{|}|(|)|.|:|!|cfg|test|\
                      #[cfg(test)]|#[test]|mod|fn|unwrap|expect|panic|thread|spawn|lock|'a|0x1f|\
                      // twrs-lint: allow(no-lib-panic) a reason|// twrs-lint: allow(|é";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, decoded as lossy UTF-8, scan to some findings.
    #[test]
    fn arbitrary_text_never_panics_the_scanner(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = check_source("crates/x/src/lib.rs", &String::from_utf8_lossy(&bytes));
    }

    /// Texts assembled from source fragments scan to some findings, under
    /// a path every rule applies to.
    #[test]
    fn source_like_text_never_panics_the_scanner(
        picks in prop::collection::vec(any::<usize>(), 0..64),
    ) {
        let pieces: Vec<&str> = PIECES.split('|').collect();
        let text: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
        let _ = check_source("crates/extsort/src/service/mod.rs", &text);
    }
}
