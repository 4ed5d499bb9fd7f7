//! A reader that closes the CLI's stdout early (`microfactory generate … |
//! head -1`) ends the run quietly: exit status 0 and nothing on stderr, not
//! a broken-pipe panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closing_stdout_after_one_line_ends_the_run_quietly() {
    // About a megabyte of instance text: far more than a pipe buffers, so
    // the writer is still writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_microfactory"))
        .args(["generate", "--tasks", "2000", "--machines", "20"])
        .args(["--types", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn microfactory");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read the first line");
    // The reader was dropped with the line: the pipe is closed.
    let output = child.wait_with_output().expect("microfactory exits");
    assert_eq!(first, "# microfactory instance\n");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "exit {:?}: {stderr}",
        output.status
    );
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
}
