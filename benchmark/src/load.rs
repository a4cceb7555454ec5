//! Inputs and plumbing shared by the workloads: the paper-scale graphs
//! (serialized, then parsed back as `repsim serve FILE` does), the
//! seeded request streams, in-process servers and fleets, and the
//! closed-loop TCP client.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use repsim_bench::serve_load::{generate, WorkloadConfig};
use repsim_datasets::rng::{seeded, ZipfSampler};
use repsim_datasets::{bibliographic, citations, movies};
use repsim_graph::Graph;
use repsim_serve::{CoordConfig, ServeConfig, ServiceConfig, ShardSpec};
use repsim_sparse::Parallelism;

/// Top-k of every rank request.
pub const K: usize = 5;

/// The served workloads' walk: films ranked by shared actors.
pub const MOVIES_WALK: &str = "film actor film";

/// One mutation in this many requests on `churn`.
pub const CHURN_EVERY: usize = 20;

/// A dataset preset, generated by the benchmark and handed to the
/// program only as serialized text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// `repsim_datasets::movies::imdb`, paper scale (20,932 nodes).
    Movies,
    /// `repsim_datasets::citations::dblp`, paper scale.
    CitationsDblp,
    /// `repsim_datasets::bibliographic::dblp`, paper scale.
    Bibliographic,
}

impl Preset {
    /// Short name used in reported figures.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Movies => "movies",
            Preset::CitationsDblp => "citations",
            Preset::Bibliographic => "bibliographic",
        }
    }

    /// The serialized graph (`repsim_graph::io` text format).
    pub fn text(self) -> Result<String, String> {
        let g = match self {
            Preset::Movies => movies::imdb(&movies::MoviesConfig::paper_scale()),
            Preset::CitationsDblp => citations::dblp(&citations::CitationConfig::paper_scale()),
            Preset::Bibliographic => {
                bibliographic::dblp(&bibliographic::BibliographicConfig::paper_scale())
            }
        };
        repsim_graph::io::write(&g).map_err(|e| format!("cannot serialize {self:?}: {e}"))
    }
}

/// Parses a serialized graph, as `repsim serve FILE` does.
pub fn parse(text: &str) -> Result<Graph, String> {
    repsim_graph::io::read(text).map_err(|e| format!("graph parse: {e}"))
}

fn gen_lines(
    g: &Graph,
    walk: &str,
    seed: u64,
    n: usize,
    mutate: bool,
) -> Result<Vec<String>, String> {
    let cfg = WorkloadConfig {
        seed,
        requests: n,
        rate_per_s: 0.0,
        zipf_exponent: 1.0,
        mutate_ratio: if mutate { 1.0 } else { 0.0 },
        deadlines_ms: Vec::new(),
        k: K,
    };
    Ok(generate(g, walk, &cfg)?
        .into_iter()
        .map(|r| r.line)
        .collect())
}

/// `n` rank requests on `walk`, Zipf(1.0) over the walk's source
/// entities, no deadlines. Prefix-stable: a longer stream of the same
/// seed starts with the shorter one.
pub fn rank_stream(g: &Graph, walk: &str, seed: u64, n: usize) -> Result<Vec<String>, String> {
    gen_lines(g, walk, seed, n, false)
}

/// `n` rank requests on `walk`, one query entity per request drawn
/// Zipf(1.0) over the walk's source label. Unlike [`rank_stream`] it
/// needs no entity label at the walk's second step (relationship
/// labels such as `cite` have none).
pub fn query_stream(g: &Graph, walk: &str, seed: u64, n: usize) -> Result<Vec<String>, String> {
    let src = walk.split_whitespace().next().unwrap_or_default();
    let label = g
        .labels()
        .get(src)
        .ok_or_else(|| format!("label {src:?} not in the graph"))?;
    let values: Vec<&str> = g
        .nodes_of_label(label)
        .iter()
        .filter_map(|&v| g.value_of(v))
        .collect();
    if values.is_empty() {
        return Err(format!("label {src:?} has no entities"));
    }
    let zipf = ZipfSampler::new(values.len(), 1.0);
    let mut rng = seeded(seed);
    Ok((1..=n)
        .map(|id| {
            let value = values[zipf.sample(&mut rng)];
            format!(
                "{{\"id\":{id},\"op\":\"rank\",\"walk\":\"{walk}\",\"label\":\"{src}\",\
                 \"value\":\"{value}\",\"k\":{K}}}"
            )
        })
        .collect())
}

/// The rank stream with every [`CHURN_EVERY`]-th request replaced by
/// the generator's next add_entity → add_edge → remove_edge step, ids
/// renumbered to the request's position.
pub fn churn_stream(g: &Graph, walk: &str, seed: u64, n: usize) -> Result<Vec<String>, String> {
    let ranks = gen_lines(g, walk, seed, n, false)?;
    let mutations = gen_lines(g, walk, seed, n / CHURN_EVERY + 1, true)?;
    let mut muts = mutations.into_iter();
    ranks
        .into_iter()
        .enumerate()
        .map(|(i, rank)| {
            let line = if (i + 1) % CHURN_EVERY == 0 {
                muts.next().ok_or("mutation stream too short")?
            } else {
                rank
            };
            renumber(&line, i + 1)
        })
        .collect()
}

/// Replaces the leading `{"id":N,` of a generated line.
fn renumber(line: &str, id: usize) -> Result<String, String> {
    let rest = line
        .strip_prefix("{\"id\":")
        .and_then(|r| r.split_once(','))
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("generated line without a leading id: {line}"))?;
    Ok(format!("{{\"id\":{id},{rest}"))
}

/// Whether a request line is a mutation.
pub fn is_mutation(line: &str) -> bool {
    line.contains("\"op\":\"mutate\"")
}

/// Where the benchmark keeps port files and the WAL: a directory of its
/// own under the working directory, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.bench_run/<tag>-<pid>` under the working directory.
    pub fn create(tag: &str) -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    /// A path inside the directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_run` itself only when another run still uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// An in-process `repsim_serve::run` or `run_coordinator` on its own
/// thread; stopped and joined by [`Server::stop`] or on drop.
pub struct Server {
    /// `ip:port` it listens on.
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

/// What to boot.
pub enum Boot {
    /// A server over the graph; `shard` makes it a fleet member.
    Node {
        /// The graph it serves.
        graph: Arc<Graph>,
        /// Fleet band, `None` for a single node.
        shard: Option<ShardSpec>,
        /// Write-ahead log path, if mutations must be durable.
        wal: Option<PathBuf>,
    },
    /// A coordinator over one replica per shard.
    Coordinator {
        /// Shard addresses, in band order.
        shards: Vec<String>,
    },
}

impl Server {
    /// Boots on a free port and waits until it is bound.
    pub fn boot(boot: Boot, port_file: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(port_file);
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let port = Some(port_file.to_path_buf());
        let thread = match boot {
            Boot::Node { graph, shard, wal } => {
                let cfg = ServeConfig {
                    port_file: port,
                    wal,
                    service: ServiceConfig {
                        par: Parallelism::with_threads(1),
                        shard,
                        ..ServiceConfig::default()
                    },
                    ..ServeConfig::default()
                };
                std::thread::spawn(move || {
                    repsim_serve::run(&graph, &cfg, &flag)
                        .map(drop)
                        .map_err(|e| e.to_string())
                })
            }
            Boot::Coordinator { shards } => {
                let cfg = CoordConfig {
                    port_file: port,
                    shards: shards.into_iter().map(|a| vec![a]).collect(),
                    ..CoordConfig::default()
                };
                std::thread::spawn(move || {
                    repsim_serve::run_coordinator(&cfg, &flag)
                        .map(drop)
                        .map_err(|e| e.to_string())
                })
            }
        };
        let mut server = Server {
            addr: String::new(),
            shutdown,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    server.addr = text.trim().to_owned();
                    return Ok(server);
                }
            }
            if server.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                return Err(match server.join() {
                    Err(e) => e,
                    Ok(()) => "server exited before binding".to_owned(),
                });
            }
            if Instant::now() > deadline {
                return Err("server did not bind within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn join(&mut self) -> Result<(), String> {
        match self.thread.take() {
            Some(t) => t.join().map_err(|_| "server thread panicked".to_owned())?,
            None => Ok(()),
        }
    }

    /// Graceful shutdown; returns the server's own error, if any.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.join();
    }
}

/// One persistent client connection: send a line, wait for its reply.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off and a 60 s read timeout.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        Ok(Conn {
            stream,
            reader,
            buf: Vec::new(),
        })
    }

    /// Sends `line` and returns the full response line (no newline).
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send: {e}"))?;
        let mut out = String::new();
        match self.reader.read_line(&mut out) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => {
                if out.ends_with('\n') {
                    out.pop();
                }
                Ok(out)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        movies::imdb(&movies::MoviesConfig::tiny())
    }

    #[test]
    fn same_seed_same_bytes_other_seed_differs() {
        let g = tiny();
        let a = churn_stream(&g, MOVIES_WALK, 7, 200).unwrap();
        let b = churn_stream(&g, MOVIES_WALK, 7, 200).unwrap();
        let c = churn_stream(&g, MOVIES_WALK, 8, 200).unwrap();
        assert_eq!(a.concat().as_bytes(), b.concat().as_bytes());
        assert_ne!(a, c);
        let r = rank_stream(&g, MOVIES_WALK, 7, 200).unwrap();
        assert_eq!(r, rank_stream(&g, MOVIES_WALK, 7, 200).unwrap());
        assert_ne!(r, rank_stream(&g, MOVIES_WALK, 8, 200).unwrap());
        // Prefix stability: more requests extend, never reshuffle.
        assert_eq!(r[..50], rank_stream(&g, MOVIES_WALK, 7, 50).unwrap()[..]);
        let q = query_stream(&g, MOVIES_WALK, 7, 50).unwrap();
        assert_eq!(q, query_stream(&g, MOVIES_WALK, 7, 50).unwrap());
        assert_ne!(q, query_stream(&g, MOVIES_WALK, 8, 50).unwrap());
        assert!(matches!(
            repsim_serve::Request::parse(&q[0]),
            Ok(repsim_serve::Request::Rank { .. })
        ));
    }

    #[test]
    fn churn_places_one_mutation_in_twenty_with_sequential_ids() {
        let g = tiny();
        let s = churn_stream(&g, MOVIES_WALK, 3, 100).unwrap();
        for (i, line) in s.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"id\":{},", i + 1)), "{line}");
            assert_eq!(is_mutation(line), (i + 1) % CHURN_EVERY == 0, "{line}");
        }
        assert!(s[19].contains("add_entity") && s[39].contains("add_edge"));
        assert!(s[59].contains("remove_edge"));
    }
}
