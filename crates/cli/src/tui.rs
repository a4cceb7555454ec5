//! `repsim top` — a terminal dashboard over the serve stats stream.
//!
//! Std-only ANSI rendering: no curses, no raw mode. Each frame is one
//! `stats-stream` push line (stats body + per-interval metric deltas)
//! laid out as a fixed page; live mode repaints with `ESC[2J`, `--once`
//! emits a single plain-text frame (CI artifacts), and `--journal FILE`
//! renders offline from a recorded metrics journal. Quit live mode with
//! `q` + Enter (stdin is read line-wise; no termios games).

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use repsim_obs::json::{self, Json};

use crate::args::CliError;

/// ANSI styling, compiled out of the plain mode by a flag rather than
/// feature-gated so `--once` output is byte-stable for CI diffs.
struct Style {
    on: bool,
}

impl Style {
    fn bold(&self, s: &str) -> String {
        if self.on {
            format!("\x1b[1m{s}\x1b[0m")
        } else {
            s.to_owned()
        }
    }
    fn alert(&self, s: &str) -> String {
        if self.on {
            format!("\x1b[31;1m{s}\x1b[0m")
        } else {
            s.to_owned()
        }
    }
    fn dim(&self, s: &str) -> String {
        if self.on {
            format!("\x1b[2m{s}\x1b[0m")
        } else {
            s.to_owned()
        }
    }
}

fn num(v: Option<&Json>) -> u64 {
    v.and_then(Json::as_num).map_or(0, |n| n as u64)
}

fn counter(metrics: Option<&Json>, name: &str) -> u64 {
    num(metrics
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name)))
}

fn hist_quantile(metrics: Option<&Json>, name: &str, q: &str) -> Option<u64> {
    metrics
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(name))
        .map(|h| num(h.get(q)))
}

fn fmt_duration_ms(ms: u64) -> String {
    let s = ms / 1000;
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.1}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn bar(filled: u64, total: u64, width: usize) -> String {
    let cells = if total == 0 {
        0
    } else {
        ((filled as f64 / total as f64) * width as f64).round() as usize
    }
    .min(width);
    format!("[{}{}]", "#".repeat(cells), "-".repeat(width - cells))
}

/// A proportional bar for the tier histogram.
fn tier_bar(count: u64, max: u64, width: usize) -> String {
    if max == 0 || count == 0 {
        return "·".to_owned();
    }
    let cells = ((count as f64 / max as f64) * width as f64).ceil() as usize;
    "#".repeat(cells.clamp(1, width))
}

/// Renders one dashboard frame from a stats-stream (or journal) line.
/// Pure: the live loop, `--once` and `--journal` all feed it the same
/// way, so one unit test pins the whole layout.
pub fn render_frame(line: &Json, source: &str, color: bool) -> String {
    let st = Style { on: color };
    let stats = line.get("stats");
    let metrics = line.get("metrics");
    let g = |k: &str| num(stats.and_then(|s| s.get(k)));
    let gs = |k: &str| {
        stats
            .and_then(|s| s.get(k))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned()
    };

    let mut out = String::new();
    let seq = num(line.get("stream_seq"));
    // Pre-shard journals carry no `shard` field; render nothing then.
    let shard = stats
        .and_then(|s| s.get("shard"))
        .map(|v| format!("shard {} ", num(Some(v))))
        .unwrap_or_default();
    out.push_str(&st.bold(&format!(
        "repsim top — {source:<40} {shard}seq {seq:<6} uptime {}\n",
        fmt_duration_ms(g("uptime_ms"))
    )));

    let (depth, cap) = (g("queue_depth"), g("queue_capacity"));
    let breaker = gs("breaker");
    let breaker_mutate = gs("breaker_mutate");
    let paint = |state: &String| {
        if state == "closed" {
            state.clone()
        } else {
            st.alert(state)
        }
    };
    out.push_str(&format!(
        "queue {} {depth}/{cap}   breaker rank {} / mutate {}\n",
        bar(depth, cap, 32),
        paint(&breaker),
        paint(&breaker_mutate),
    ));

    // Lifetime totals from the stats body, per-interval deltas from
    // the metrics counters (the stream's delta snapshot).
    let d = |name: &str| counter(metrics, name);
    out.push_str(&format!(
        "requests {} (+{})   shed {} (+{})   degraded {} (+{})   exhausted {} (+{})\n",
        g("requests"),
        d("repsim.serve.requests"),
        g("shed"),
        d("repsim.serve.shed"),
        g("degraded"),
        d("repsim.serve.degraded"),
        g("exhausted"),
        d("repsim.serve.exhausted"),
    ));
    let age = stats
        .and_then(|s| s.get("snapshot_age_ms"))
        .map(|v| num(Some(v)));
    out.push_str(&format!(
        "mutations {} (+{})   wal seq {}   fingerprint {}   snapshot age {}\n",
        g("mutations"),
        d("repsim.serve.mutations"),
        g("seq"),
        gs("fingerprint"),
        age.map_or("—".to_owned(), |ms| format!("{:.1}s", ms as f64 / 1e3)),
    ));
    out.push_str(&st.dim(&format!(
        "cache {} entries / {} engines   stream lines {}   journal lines {}\n",
        g("cache_entries"),
        g("engines"),
        counter(metrics, "repsim.serve.stats.lines").max(seq + 1),
        counter(metrics, "repsim.serve.stats.journal_lines"),
    )));

    // Per-tier degradation histogram over this interval.
    let tiers = [
        ("exact", d("repsim.serve.tier.exact")),
        ("half-factorized", d("repsim.serve.tier.half_factorized")),
        ("prefix", d("repsim.serve.tier.prefix")),
    ];
    let max_tier = tiers.iter().map(|&(_, n)| n).max().unwrap_or(0);
    out.push_str(&st.bold("tiers (this interval)\n"));
    for (name, n) in tiers {
        out.push_str(&format!(
            "  {name:>15} {:<24} {n}\n",
            tier_bar(n, max_tier, 24)
        ));
    }

    // SpGEMM kernel deltas: is the serving load actually building
    // matrices, and how many rows and tiles is the numeric phase sweeping?
    out.push_str(&st.bold("spgemm (this interval)\n"));
    out.push_str(&format!(
        "  calls +{}   dense rows +{}   tiles +{}\n",
        d("repsim.sparse.spgemm.calls"),
        d("repsim.sparse.spgemm.numeric.dense_rows"),
        d("repsim.sparse.spgemm.numeric.tile_count"),
    ));
    let numeric = ["p50", "p99"]
        .iter()
        .filter_map(|q| {
            hist_quantile(metrics, "repsim.sparse.spgemm.numeric_ns", q)
                .filter(|&v| v > 0)
                .map(|v| format!("{q} {}", fmt_ns(v)))
        })
        .collect::<Vec<_>>();
    if numeric.is_empty() {
        out.push_str(&st.dim("  numeric phase idle\n"));
    } else {
        out.push_str(&format!("  numeric {}\n", numeric.join("   ")));
    }
    out
}

/// Renders the last frame of a recorded metrics journal (plus how much
/// history it holds). `repsim top --journal FILE`.
pub fn render_journal(path: &str, color: bool) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    let frames: Vec<Json> = text
        .lines()
        .filter_map(|l| json::parse(l).ok())
        .filter(|v| v.get("stats").is_some())
        .collect();
    let last = frames
        .last()
        .ok_or_else(|| CliError::Command(format!("{path} holds no stats lines")))?;
    let mut out = render_frame(
        last,
        &format!("journal {path} ({} frames)", frames.len()),
        color,
    );
    out.push_str(&format!(
        "(offline render of frame {}/{})\n",
        frames.len(),
        frames.len()
    ));
    Ok(out)
}

/// Live mode: subscribes to the server's stats stream and repaints a
/// frame per push line. `once` renders exactly one frame and returns
/// it (no screen control); otherwise runs until `q` + Enter, the
/// stream's `count` is reached, or the server goes away.
pub fn live(
    addr: &str,
    interval_ms: u64,
    count: u64,
    once: bool,
    color: bool,
) -> Result<String, CliError> {
    let net = |e: std::io::Error| CliError::Io(format!("stats stream from {addr}: {e}"));
    let mut stream = TcpStream::connect(addr).map_err(net)?;
    stream.set_nodelay(true).ok();
    let wanted = if once { 1 } else { count };
    stream
        .write_all(
            format!(
                "{{\"op\":\"stats-stream\",\"interval_ms\":{interval_ms},\"count\":{wanted}}}\n"
            )
            .as_bytes(),
        )
        .map_err(net)?;
    // Poll with a read timeout so `q` + Enter is noticed between
    // pushes even when the server goes quiet.
    stream
        .set_read_timeout(Some(Duration::from_millis(interval_ms.clamp(10, 500))))
        .map_err(net)?;
    let mut reader = BufReader::new(stream);

    let quit = Arc::new(AtomicBool::new(false));
    if !once {
        let quit = Arc::clone(&quit);
        std::thread::spawn(move || {
            let stdin = std::io::stdin();
            for line in stdin.lock().lines() {
                match line {
                    Ok(l) if l.trim() == "q" => {
                        quit.store(true, Ordering::SeqCst);
                        break;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        });
    }

    let mut frames = 0u64;
    let mut buf = String::new();
    loop {
        if quit.load(Ordering::SeqCst) {
            return Ok(format!("quit after {frames} frames"));
        }
        buf.clear();
        match reader.read_line(&mut buf) {
            Ok(0) => {
                return if frames > 0 {
                    Ok(format!("stream ended after {frames} frames"))
                } else {
                    Err(CliError::Command(format!("{addr} closed the stream")))
                };
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(net(e)),
        }
        let Ok(line) = json::parse(buf.trim_end()) else {
            continue;
        };
        if line.get("stats").is_none() {
            continue;
        }
        frames += 1;
        let frame = render_frame(&line, addr, color);
        if once {
            return Ok(frame);
        }
        // Repaint: clear, home, frame, footer.
        print!("\x1b[2J\x1b[H{frame}\nq + Enter quits\n");
        let _ = std::io::stdout().flush();
        if wanted != 0 && frames >= wanted {
            return Ok(format!("stream ended after {frames} frames"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_line() -> Json {
        json::parse(
            r#"{"ok":true,"stream_seq":3,"t_ms":1234,
                "stats":{"requests":120,"shed":4,"degraded":2,"exhausted":1,
                         "queue_depth":8,"queue_capacity":64,"cache_entries":5,
                         "engines":2,"breaker":"closed","breaker_mutate":"open",
                         "snapshot_restored":false,"mutations":7,"mutate_exhausted":0,
                         "fingerprint":"0xabc","seq":7,"uptime_ms":61234,
                         "snapshot_age_ms":2500,"shard":1},
                "metrics":{"counters":{"repsim.serve.requests":12,
                                       "repsim.serve.tier.exact":10,
                                       "repsim.serve.tier.half_factorized":2,
                                       "repsim.sparse.spgemm.calls":3},
                           "gauges":{},
                           "histograms":{"repsim.sparse.spgemm.numeric_ns":
                               {"count":3,"sum":3000000,"mean":1000000.0,
                                "p50":900000,"p90":1500000,"p99":1900000,
                                "buckets":[[19,3]]}}}}"#,
        )
        .unwrap()
    }

    #[test]
    fn frame_lays_out_stats_and_deltas() {
        let frame = render_frame(&sample_line(), "127.0.0.1:7878", false);
        assert!(frame.contains("shard 1 seq 3"), "{frame}");
        assert!(frame.contains("uptime 00:01:01"), "{frame}");
        assert!(frame.contains("8/64"), "{frame}");
        assert!(frame.contains("requests 120 (+12)"), "{frame}");
        assert!(frame.contains("shed 4 (+0)"), "{frame}");
        assert!(frame.contains("mutate open"), "{frame}");
        assert!(frame.contains("wal seq 7"), "{frame}");
        assert!(frame.contains("snapshot age 2.5s"), "{frame}");
        assert!(frame.contains("exact"), "{frame}");
        assert!(frame.contains("half-factorized"), "{frame}");
        assert!(frame.contains("calls +3"), "{frame}");
        assert!(frame.contains("p50 900.0µs"), "{frame}");
        assert!(!frame.contains('\x1b'), "plain mode must carry no ANSI");
    }

    #[test]
    fn color_mode_emits_ansi_and_alerts_on_open_breaker() {
        let frame = render_frame(&sample_line(), "x", true);
        assert!(frame.contains("\x1b[1m"), "bold header");
        assert!(
            frame.contains("\x1b[31;1mopen\x1b[0m"),
            "open breaker alerts"
        );
    }

    #[test]
    fn journal_render_uses_last_frame() {
        let dir = std::env::temp_dir().join(format!("repsim-tui-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.jsonl");
        let line = r#"{"ok":true,"stream_seq":0,"t_ms":1,"stats":{"requests":1,"queue_depth":0,"queue_capacity":8,"breaker":"closed","breaker_mutate":"closed","uptime_ms":1000,"fingerprint":"0x1","seq":0},"metrics":{"counters":{},"gauges":{},"histograms":{}}}"#;
        let line2 = line.replace("\"requests\":1", "\"requests\":9");
        std::fs::write(&path, format!("{line}\n{line2}\nnot json\n")).unwrap();
        let out = render_journal(&path.to_string_lossy(), false).unwrap();
        assert!(out.contains("requests 9"), "{out}");
        assert!(out.contains("(2 frames)"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(render_journal("/nonexistent/m.jsonl", false).is_err());
    }

    #[test]
    fn bars_degrade_gracefully() {
        assert_eq!(bar(0, 0, 4), "[----]");
        assert_eq!(bar(4, 4, 4), "[####]");
        assert_eq!(tier_bar(0, 0, 8), "·");
        assert_eq!(tier_bar(1, 100, 8), "#");
    }
}
