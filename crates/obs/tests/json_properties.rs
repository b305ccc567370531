//! Property-based tests for `mpdf_obs::json`: the reader accepts every
//! string the writer writes, and never panics on arbitrary input.

use mpdf_obs::json;
use proptest::prelude::*;

/// Strings biased towards what needs escaping: C0 controls, quotes,
/// backslashes, plain ASCII and non-ASCII scalars (BMP and astral).
fn awkward_strings() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (0u8..5, 0u32..0x20, 0x80u32..0x11_0000).prop_map(|(kind, control, wide)| match kind {
            0 => char::from_u32(control).unwrap_or('?'),
            1 => '"',
            2 => '\\',
            3 => char::from_u32(0x20 + control * 3).unwrap_or('?'),
            _ => char::from_u32(wide).unwrap_or('\u{fffd}'),
        }),
        0..48,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_string_inverts_push_string(s in awkward_strings()) {
        let mut text = String::new();
        json::push_string(&mut text, &s);
        prop_assert!(!text.contains('\n'));
        text.push_str(", rest");
        let (back, rest) = json::parse_string(&text).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back, s);
        prop_assert_eq!(rest, ", rest");
    }

    #[test]
    fn parse_document_is_total_on_garbage(
        bytes in proptest::collection::vec(0u8..128, 0..400)
    ) {
        // Arbitrary ASCII hits torn literals, stray escapes, bad numbers
        // and unbalanced brackets; every outcome must be a value or an
        // error, never a panic.
        let text: String = bytes.iter().map(|&b| char::from(b)).collect();
        let _ = json::parse_document(&text);
        let _ = json::parse_string(&text);
    }
}
