//! The JSON string parser every wire line goes through: escapes,
//! surrogate pairs, multi-byte UTF-8 and the malformed cases.

use serde::Value;

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(text).map_err(|e| e.to_string())
}

fn string(text: &str) -> String {
    match parse(text) {
        Ok(Value::Str(s)) => s,
        other => panic!("{text} parsed as {other:?}"),
    }
}

#[test]
fn simple_escapes() {
    assert_eq!(
        string(r#""a\"b\\c\/d\ne\rf\tg\bh\fi""#),
        "a\"b\\c/d\ne\rf\tg\u{8}h\u{c}i"
    );
    assert_eq!(string(r#""""#), "");
    assert_eq!(string(r#""\\""#), "\\");
    assert_eq!(string(r#""plain""#), "plain");
}

#[test]
fn unicode_escapes_and_surrogate_pairs() {
    assert_eq!(string(r#""\u0041\u00e9\u4E2D""#), "Aé中");
    assert_eq!(string(r#""x\ud83d\ude00y""#), "x😀y");
    assert_eq!(string(r#""\u0000""#), "\0");
}

#[test]
fn multi_byte_utf8_runs() {
    assert_eq!(string("\"héllo 中文 😀\""), "héllo 中文 😀");
    assert_eq!(string("\"é\\n中\\\"😀\""), "é\n中\"😀");
    let doc = parse("{\"clé\":[\"ü\",\"\\u00fc\"],\"k\":\"中\"}").expect("document");
    assert_eq!(
        doc,
        Value::Object(vec![
            (
                "clé".to_owned(),
                Value::Array(vec![Value::Str("ü".into()), Value::Str("ü".into())])
            ),
            ("k".to_owned(), Value::Str("中".into())),
        ])
    );
}

#[test]
fn rendered_strings_parse_back_unchanged() {
    let mut s: String = (0u8..0x80).map(char::from).collect();
    s.push_str("é中😀\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}");
    let text = serde_json::to_string(&Value::Str(s.clone())).expect("render");
    assert_eq!(string(&text), s);
}

#[test]
fn malformed_strings_are_errors() {
    for (text, needle) in [
        (r#""abc"#, "unterminated string"),
        (r#""abc\"#, "bad escape"),
        (r#""\q""#, "bad escape character"),
        (r#""\u12""#, "bad hex digit"),
        (r#""\ud800""#, "lone surrogate"),
        (r#""\ud800x""#, "lone surrogate"),
        (r#""\ud800\u0041""#, "lone surrogate"),
        (r#""\udc00""#, "bad \\u escape"),
    ] {
        let err = parse(text).expect_err(text);
        assert!(err.contains(needle), "{text}: {err}");
    }
}
