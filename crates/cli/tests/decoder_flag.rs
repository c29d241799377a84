//! `--decoder` names one of a closed set: an unknown name is a run failure
//! (exit code 1) whose message lists every decoder the tool knows.

use std::process::Command;

#[test]
fn unknown_decoder_fails_and_names_the_known_set() {
    let output = Command::new(env!("CARGO_BIN_EXE_prophunt"))
        .args("ler --code surface:3 --decoder nope --shots 64".split_whitespace())
        .output()
        .expect("the prophunt binary runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    for known in ["bposd", "unionfind"] {
        assert!(stderr.contains(known), "{stderr}");
    }
}
