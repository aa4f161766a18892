//! Robustness fuzzing: the front end must never panic — every input,
//! however mangled, either parses or produces a structured error.

use modref_check::prelude::*;
use modref_frontend::parse_program;

property! {
    #![cases = 512]

    fn arbitrary_text_never_panics(input in arbitrary_text(0..256)) {
        let _ = parse_program(&input);
    }

    fn arbitrary_tokens_never_panic(
        words in vec_of(
            element_of(vec![
                "var", "proc", "main", "call", "value", "if", "else", "while",
                "read", "print", "{", "}", "(", ")", "[", "]", ";", ",", "=",
                "*", "+", "x", "42",
            ]),
            0..64,
        )
    ) {
        let input = words.join(" ");
        let _ = parse_program(&input);
    }

    fn numeric_literals_of_any_length_never_panic(
        digits in string_from("0123456789", 1..40),
        pad in ints(0..4usize),
    ) {
        // Literals up to 39 digits sail far past i64::MAX; the lexer must
        // reject them with a spanned error, never panic or wrap.
        let input = format!("main {{ print {}{digits}; }}", "0".repeat(pad));
        match parse_program(&input) {
            Ok(_) => {
                prop_assert!(
                    digits.trim_start_matches('0').len() <= 19,
                    "a literal past i64 range parsed: `{digits}`"
                );
            }
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(!msg.is_empty(), "error must explain itself");
            }
        }
    }

    fn pathologically_long_inputs_never_panic(
        stmts in ints(0..400usize),
        name_len in ints(1..300usize),
        seed in any_u64(),
    ) {
        // Long token streams, long identifiers, and trailing garbage in
        // one input: growth in input size must only ever produce larger
        // programs or structured errors.
        let name: String = "x".repeat(name_len);
        let mut src = format!("var {name};\nmain {{\n");
        for i in 0..stmts {
            src.push_str(&format!("  {name} = {name} + {};\n", i % 7));
        }
        src.push('}');
        if seed % 3 == 0 {
            src.push_str(" @@@");
        }
        let result = parse_program(&src);
        if seed % 3 == 0 {
            prop_assert!(result.is_err(), "trailing garbage must be rejected");
        } else {
            prop_assert!(result.is_ok(), "well-formed long input must parse");
        }
    }

    fn mutated_valid_programs_never_panic(
        cut_start in ints(0..200usize),
        cut_len in ints(0..40usize),
        insert in string_from("abcdefghijklmnopqrstuvwxyz0123456789{}()[];,=*+#\n ", 0..13),
    ) {
        let base = "var g, a[*, *];
            proc p(x, row[*]) {
              var t;
              t = x + 1;
              row[t] = g;
              if (t < 3) { call p(value t, row); }
            }
            main { call p(value 1, a[2, *]); }";
        let mut text: Vec<char> = base.chars().collect();
        let start = cut_start.min(text.len());
        let end = (start + cut_len).min(text.len());
        text.splice(start..end, insert.chars());
        let mutated: String = text.into_iter().collect();
        let _ = parse_program(&mutated);
    }
}

#[test]
fn integer_literal_boundary_is_exact() {
    // i64::MAX is the largest literal the language admits; one past it
    // must be a spanned lex error, not a panic or a silent wrap.
    let max = i64::MAX; // 9223372036854775807
    assert!(parse_program(&format!("main {{ print {max}; }}")).is_ok());
    let err = parse_program("main { print 9223372036854775808; }")
        .expect_err("out-of-range literal is rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("lex error"),
        "classified as a lex error: {msg}"
    );
    assert!(msg.contains("out of range"), "explains the range: {msg}");
    assert!(msg.contains("1:14"), "carries the span: {msg}");
}

#[test]
fn leading_zeros_do_not_fake_an_overflow() {
    // 20 digits of padding around a small value still fits.
    let printed = parse_program("main { print 00000000000000000042; }");
    assert!(printed.is_ok(), "leading zeros are not magnitude");
}
