//! Integration test of the `mdes` command-line interface: simulate -> fit
//! -> detect -> discover -> diagnose over one MDSN model file, which the
//! `mdes-serve` daemon then serves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn mdes(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdes"))
        .args(args)
        .output()
        .expect("run mdes binary")
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&p).expect("tmp dir");
    p.push(name);
    p.to_string_lossy().into_owned()
}

fn assert_ok(step: &str, out: &Output) -> String {
    assert!(
        out.status.success(),
        "{step}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Boots `mdes-serve` on `model`, checks the width its startup line
/// reports, and stops it with the admin `shutdown` command.
fn serve_and_shut_down(model: &str, width: usize) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdes-serve"))
        .args(["--snapshot", model])
        .args(["--addr", "127.0.0.1:0", "--admin-addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mdes-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("startup line");
    if line.is_empty() {
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("stderr")
            .read_to_string(&mut err)
            .ok();
        panic!("mdes-serve exited at startup: {err}");
    }
    // "mdes-serve: ingest on HOST:PORT, admin on HOST:PORT, model width W"
    assert!(
        line.trim_end().ends_with(&format!("model width {width}")),
        "{line}"
    );
    let admin = line
        .split("admin on ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("admin address");
    let mut conn = TcpStream::connect(admin).expect("connect admin plane");
    conn.write_all(b"shutdown\n").expect("send shutdown");
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).expect("reply");
    assert!(reply.starts_with("ok"), "{reply}");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "mdes-serve exited with {status}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("rest of stdout");
    assert!(rest.contains("stopped"), "{rest}");
}

#[test]
fn full_cli_workflow() {
    let traces = tmp("cli_traces.json");
    let model = tmp("cli_model.mdsn");
    let again = tmp("cli_model_again.mdsn");
    let dot = tmp("cli_graph.dot");

    // simulate-plant: 10 sensors x 10 days x 288 samples.
    let out = mdes(&[
        "simulate-plant",
        "--out",
        &traces,
        "--sensors",
        "10",
        "--days",
        "10",
        "--minutes",
        "288",
    ]);
    assert_ok("simulate", &out);
    assert!(std::fs::metadata(&traces).expect("traces file").len() > 1000);

    // fit on days 1-4, dev 5-6; use a wide validity range so detection on
    // the miniature plant has models to consult. Fitting twice with the
    // same arguments writes the same bytes.
    let fit = |out: &str| {
        mdes(&[
            "fit",
            "--traces",
            &traces,
            "--train",
            "0..1152",
            "--dev",
            "1152..1728",
            "--out",
            out,
            "--word-len",
            "5",
            "--sent-len",
            "6",
            "--valid",
            "40..100",
        ])
    };
    let stdout = assert_ok("fit", &fit(&model));
    assert!(
        stdout.contains("directional models"),
        "fit output: {stdout}"
    );
    assert_ok("refit", &fit(&again));
    let bytes = std::fs::read(&model).expect("model file");
    assert!(bytes.starts_with(b"MDSN"), "fit writes an MDSN snapshot");
    assert!(
        bytes == std::fs::read(&again).expect("refit model file"),
        "two fits with the same arguments differ"
    );

    // detect over days 7-10.
    let out = mdes(&[
        "detect",
        "--model",
        &model,
        "--traces",
        &traces,
        "--range",
        "1728..2880",
    ]);
    let stdout = assert_ok("detect", &out);
    assert!(stdout.contains("a_t"), "detect output: {stdout}");
    assert!(stdout.contains("valid models"));

    // A stdout whose reader has gone away (`mdes detect ... | head -0`)
    // drops the output quietly: exit 0 and nothing on stderr. The read end
    // is closed before the child starts, so every write hits EPIPE.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_mdes"))
        .args(["detect", "--model", &model, "--traces", &traces])
        .args(["--range", "1728..2880"])
        .stdout(writer)
        .output()
        .expect("run mdes with a closed stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "closed stdout: {stderr}");
    assert!(!stderr.contains("panicked"), "closed stdout: {stderr}");
    assert!(stderr.is_empty(), "closed stdout: {stderr}");

    // discover structure and export DOT.
    let out = mdes(&[
        "discover", "--model", &model, "--range", "40..100", "--dot", &dot,
    ]);
    assert_ok("discover", &out);
    let dot_content = std::fs::read_to_string(&dot).expect("dot file");
    assert!(dot_content.starts_with("digraph"));

    // diagnose the worst window.
    let out = mdes(&[
        "diagnose",
        "--model",
        &model,
        "--traces",
        &traces,
        "--range",
        "1728..2880",
    ]);
    let stdout = assert_ok("diagnose", &out);
    assert!(stdout.contains("broken pairs"), "diagnose output: {stdout}");

    // The daemon serves the same file.
    let width = mdes::core::read_snapshot(std::path::Path::new(&model))
        .expect("read model")
        .min_width();
    serve_and_shut_down(&model, width);
}

#[test]
fn cli_reports_clean_errors() {
    let out = mdes(&[
        "fit",
        "--traces",
        "/nonexistent.json",
        "--train",
        "0..10",
        "--dev",
        "10..20",
        "--out",
        "/tmp/x.json",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read traces file"), "stderr: {err}");

    let out = mdes(&["unknown-command"]);
    assert!(!out.status.success());

    let out = mdes(&[
        "detect",
        "--model",
        "/nonexistent.json",
        "--traces",
        "/also-nope.json",
        "--range",
        "0..10",
    ]);
    assert!(!out.status.success());

    // A JSON model file (what `fit` wrote before MDSN) is refused cleanly.
    let json = tmp("cli_json_model.json");
    std::fs::write(&json, r#"{"cfg":{},"lang":{},"trained":{}}"#).expect("json model");
    let out = mdes(&[
        "detect", "--model", &json, "--traces", &json, "--range", "0..10",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    let line = err
        .lines()
        .find(|l| l.starts_with("error:"))
        .unwrap_or_else(|| panic!("no error line: {err}"));
    assert!(
        line.contains(&json) && line.contains("not a snapshot file"),
        "{line}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn cli_help_succeeds() {
    let out = mdes(&["help"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("USAGE"));
}
