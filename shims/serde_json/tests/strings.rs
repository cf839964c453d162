//! String decoding: escapes, multibyte text and control characters
//! round-trip exactly, and malformed strings keep their error kinds.

use proptest::prelude::*;
use serde_json::{from_str, to_string};

/// Characters next to which escapes are easy to get wrong: the two string
/// delimiters, short escapes, control characters and 2-, 3- and 4-byte
/// UTF-8.
const PALETTE: &str = "\"\\/\n\r\t\u{8}\u{c}\u{0}\u{1f}\u{7f}a éß€中\u{fffd}😀\u{10ffff}";

/// A char from the palette or any scalar value.
fn any_char() -> impl Strategy<Value = char> {
    let palette: Vec<char> = PALETTE.chars().collect();
    (0..2u8, 0..palette.len(), 0..0x11_0000u32).prop_map(move |(pick, i, code)| {
        if pick == 0 {
            palette[i]
        } else {
            char::from_u32(code).unwrap_or('\u{fffd}')
        }
    })
}

/// Encodes `c` as JSON string content in the style `how` selects: raw when
/// JSON allows it, a short escape, or a `\u` escape (BMP only).
fn encode(out: &mut String, c: char, how: u8) {
    let short = match c {
        '"' => Some('"'),
        '\\' => Some('\\'),
        '/' => Some('/'),
        '\n' => Some('n'),
        '\r' => Some('r'),
        '\t' => Some('t'),
        '\u{8}' => Some('b'),
        '\u{c}' => Some('f'),
        _ => None,
    };
    let bmp = (c as u32) < 0x1_0000;
    match (how, short) {
        (0, Some(e)) | (1, Some(e)) => {
            out.push('\\');
            out.push(e);
        }
        (2, _) if bmp => out.push_str(&format!("\\u{:04X}", c as u32)),
        _ if c == '"' || c == '\\' => {
            out.push('\\');
            out.push(c);
        }
        _ => out.push(c),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_roundtrip(chars in proptest::collection::vec(any_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let back: String = from_str(&to_string(&s).unwrap()).unwrap();
        prop_assert_eq!(back, s);
    }

    #[test]
    fn every_escape_style_decodes(
        chars in proptest::collection::vec((any_char(), 0..3u8), 0..64),
    ) {
        let mut json = String::from("\"");
        for &(c, how) in &chars {
            encode(&mut json, c, how);
        }
        json.push('"');
        let want: String = chars.iter().map(|&(c, _)| c).collect();
        let back: String = from_str(&json).unwrap();
        prop_assert_eq!(back, want);
    }
}

fn error_of(json: &str) -> String {
    from_str::<serde::Value>(json).unwrap_err().to_string()
}

#[test]
fn malformed_strings_keep_their_error_kinds() {
    assert_eq!(
        error_of("\"héllo 中😀"),
        format!("unterminated string at byte {}", "\"héllo 中😀".len())
    );
    assert_eq!(error_of("[\"é\\"), "bad escape at byte 4");
    assert_eq!(error_of("[\"é"), "unterminated string at byte 4");
    assert_eq!(error_of("\"中\\q\""), "bad escape at byte 4");
    assert_eq!(error_of("\"中\\u12\""), "bad \\u escape at byte 4");
    assert_eq!(error_of("\"\\u12"), "bad \\u escape at byte 1");
    assert_eq!(error_of("\"\\uzzzz\""), "bad \\u escape at byte 1");
    assert_eq!(error_of("{\"é\" 1}"), "expected `:` at byte 6");
}
