//! Dataset (de)serialisation.
//!
//! Datasets are stored as JSON (one file per dataset) so experiments are
//! reproducible byte-for-byte across runs without regenerating graphs.
//!
//! [`Dataset::load`] validates what it reads: every graph is rebuilt
//! through [`StreamGraph::from_parts`] (rejecting dangling edge
//! endpoints, duplicate edges, self-loops, cycles, and empty graphs, and
//! recomputing the derived adjacency so a tampered file cannot smuggle in
//! an inconsistent one), and all numeric fields must be finite with the
//! right sign. Failures are named [`DatasetError`]s, not panics.

use crate::cluster::ClusterSpec;
use crate::graph::{GraphError, StreamGraph};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Why a dataset failed to load or validate.
#[derive(Debug)]
pub enum DatasetError {
    /// The file could not be read.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not valid dataset JSON.
    Parse {
        /// Path that failed.
        path: PathBuf,
        /// Parser diagnostic.
        detail: String,
    },
    /// A graph's structure is invalid (dangling endpoints, duplicate
    /// edges, self-loops, cycles, empty, channel count not matching the
    /// edge count).
    Graph {
        /// Index of the offending graph within the dataset.
        index: usize,
        /// The structural error.
        source: GraphError,
    },
    /// An operator carries an invalid numeric field.
    InvalidOperator {
        /// Index of the offending graph.
        graph: usize,
        /// Node index of the operator.
        node: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// A channel carries an invalid numeric field.
    InvalidChannel {
        /// Index of the offending graph.
        graph: usize,
        /// Edge index of the channel.
        edge: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// The source rate is not a finite positive number.
    InvalidSourceRate {
        /// The offending value.
        value: f64,
    },
    /// The cluster spec is unusable.
    InvalidCluster {
        /// What is wrong with it.
        detail: String,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io { path, source } => {
                write!(f, "failed to read dataset {}: {source}", path.display())
            }
            DatasetError::Parse { path, detail } => {
                write!(f, "dataset {} is not valid JSON: {detail}", path.display())
            }
            DatasetError::Graph { index, source } => {
                write!(f, "dataset graph {index} is invalid: {source}")
            }
            DatasetError::InvalidOperator {
                graph,
                node,
                detail,
            } => write!(
                f,
                "dataset graph {graph}, operator {node} is invalid: {detail}"
            ),
            DatasetError::InvalidChannel {
                graph,
                edge,
                detail,
            } => write!(
                f,
                "dataset graph {graph}, channel {edge} is invalid: {detail}"
            ),
            DatasetError::InvalidSourceRate { value } => write!(
                f,
                "dataset source_rate must be a finite positive number, got {value}"
            ),
            DatasetError::InvalidCluster { detail } => {
                write!(f, "dataset cluster spec is invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for DatasetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatasetError::Io { source, .. } => Some(source),
            DatasetError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why a single graph failed validation. Shared by [`Dataset`] loading
/// and the serving wire format ([`crate::wire`]) — anything that accepts
/// a graph from outside the process funnels it through
/// [`validate_graph`] or, when it has just built the graph itself,
/// [`validate_numbers`].
#[derive(Debug)]
pub enum GraphValidationError {
    /// Structural rejection from [`StreamGraph::from_parts`] (dangling
    /// endpoints, duplicate edges, self-loops, cycles, empty graph,
    /// mismatched channel count).
    Structure(GraphError),
    /// An operator carries an invalid numeric field.
    Operator {
        /// Node index of the operator.
        node: usize,
        /// What is wrong with it.
        detail: String,
    },
    /// A channel carries an invalid numeric field.
    Channel {
        /// Edge index of the channel.
        edge: usize,
        /// What is wrong with it.
        detail: String,
    },
}

impl fmt::Display for GraphValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphValidationError::Structure(e) => write!(f, "invalid graph structure: {e}"),
            GraphValidationError::Operator { node, detail } => {
                write!(f, "operator {node} is invalid: {detail}")
            }
            GraphValidationError::Channel { edge, detail } => {
                write!(f, "channel {edge} is invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphValidationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphValidationError::Structure(e) => Some(e),
            _ => None,
        }
    }
}

/// Validate one externally-supplied graph whose derived structure came
/// from outside (a dataset file): the numeric checks of
/// [`validate_numbers`], then a rebuild of the adjacency and topological
/// order from the raw parts through the validating constructor — never
/// trusted from the input. A graph just built by
/// [`StreamGraph::from_parts`] needs only [`validate_numbers`].
pub fn validate_graph(graph: &StreamGraph) -> Result<StreamGraph, GraphValidationError> {
    validate_numbers(graph)?;
    StreamGraph::from_parts(
        graph.ops().to_vec(),
        graph.edge_list().to_vec(),
        graph.channels().to_vec(),
    )
    .map_err(GraphValidationError::Structure)
}

/// Numeric validation of an externally-supplied graph: every operator
/// cost, channel payload and selectivity must be finite and
/// non-negative.
pub fn validate_numbers(graph: &StreamGraph) -> Result<(), GraphValidationError> {
    for (ni, op) in graph.ops().iter().enumerate() {
        if !(op.ipt.is_finite() && op.ipt >= 0.0) {
            return Err(GraphValidationError::Operator {
                node: ni,
                detail: format!("instructions per tuple {}", op.ipt),
            });
        }
    }
    for (ei, ch) in graph.channels().iter().enumerate() {
        if !(ch.payload.is_finite() && ch.payload >= 0.0) {
            return Err(GraphValidationError::Channel {
                edge: ei,
                detail: format!("payload {} bytes/tuple", ch.payload),
            });
        }
        if !(ch.selectivity.is_finite() && ch.selectivity >= 0.0) {
            return Err(GraphValidationError::Channel {
                edge: ei,
                detail: format!("selectivity {}", ch.selectivity),
            });
        }
    }
    Ok(())
}

/// A persisted dataset: graphs plus the environment they were generated for.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable name (e.g. `medium-100-200`).
    pub name: String,
    /// Cluster environment of the setting.
    pub cluster: ClusterSpec,
    /// Source tuple rate of the setting (tuples/second).
    pub source_rate: f64,
    /// Graphs in the dataset.
    pub graphs: Vec<StreamGraph>,
}

impl Dataset {
    /// Write as JSON to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        w.write_all(json.as_bytes())?;
        w.flush()
    }

    /// Read and validate a JSON dataset from `path`.
    pub fn load(path: &Path) -> Result<Self, DatasetError> {
        let io_err = |source| DatasetError::Io {
            path: path.to_path_buf(),
            source,
        };
        let mut buf = String::new();
        BufReader::new(std::fs::File::open(path).map_err(io_err)?)
            .read_to_string(&mut buf)
            .map_err(io_err)?;
        let ds: Dataset = serde_json::from_str(&buf).map_err(|e| DatasetError::Parse {
            path: path.to_path_buf(),
            detail: e.to_string(),
        })?;
        ds.validated()
    }

    /// Validate the dataset, rebuilding each graph's derived structure
    /// (adjacency, topological order) from its raw parts. Derived
    /// deserialisation bypasses the builder's invariants, so this is
    /// mandatory for any graph that came from disk.
    pub fn validated(mut self) -> Result<Self, DatasetError> {
        if !(self.source_rate.is_finite() && self.source_rate > 0.0) {
            return Err(DatasetError::InvalidSourceRate {
                value: self.source_rate,
            });
        }
        if self.cluster.devices == 0 {
            return Err(DatasetError::InvalidCluster {
                detail: "cluster has no devices".to_string(),
            });
        }
        if !(self.cluster.mips.is_finite() && self.cluster.mips > 0.0) {
            return Err(DatasetError::InvalidCluster {
                detail: format!(
                    "device MIPS must be finite positive, got {}",
                    self.cluster.mips
                ),
            });
        }
        if !(self.cluster.link_mbps.is_finite() && self.cluster.link_mbps > 0.0) {
            return Err(DatasetError::InvalidCluster {
                detail: format!(
                    "link bandwidth must be finite positive, got {} Mbps",
                    self.cluster.link_mbps
                ),
            });
        }
        for (gi, graph) in self.graphs.iter_mut().enumerate() {
            // Numeric checks plus a rebuild through the validating
            // constructor: catches dangling endpoints / duplicates /
            // self-loops / cycles and replaces whatever adjacency the
            // file claimed with the recomputed one.
            *graph = validate_graph(graph).map_err(|e| match e {
                GraphValidationError::Structure(source) => {
                    DatasetError::Graph { index: gi, source }
                }
                GraphValidationError::Operator { node, detail } => DatasetError::InvalidOperator {
                    graph: gi,
                    node,
                    detail,
                },
                GraphValidationError::Channel { edge, detail } => DatasetError::InvalidChannel {
                    graph: gi,
                    edge,
                    detail,
                },
            })?;
        }
        Ok(self)
    }

    /// Split into `(train, test)` taking the last `test_len` graphs as test,
    /// mirroring the paper's 300-graph test split.
    pub fn split(mut self, test_len: usize) -> (Dataset, Dataset) {
        let test_len = test_len.min(self.graphs.len());
        let test_graphs = self.graphs.split_off(self.graphs.len() - test_len);
        let test = Dataset {
            name: format!("{}-test", self.name),
            cluster: self.cluster,
            source_rate: self.source_rate,
            graphs: test_graphs,
        };
        self.name = format!("{}-train", self.name);
        (self, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Channel, Operator, StreamGraphBuilder};

    fn tiny_graph(seed: f64) -> StreamGraph {
        let mut b = StreamGraphBuilder::new();
        let a = b.add_node(Operator::new(seed));
        let c = b.add_node(Operator::new(seed * 2.0));
        b.add_edge(a, c, Channel::new(8.0)).unwrap();
        b.finish().unwrap()
    }

    fn tiny_dataset() -> Dataset {
        Dataset {
            name: "t".into(),
            cluster: ClusterSpec::paper_medium(5),
            source_rate: 1e4,
            graphs: vec![tiny_graph(1.0), tiny_graph(2.0)],
        }
    }

    fn save_text(tag: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("spg-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.json"));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn roundtrip_through_json() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("spg-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        ds.save(&path).unwrap();
        let back = Dataset::load(&path).unwrap();
        assert_eq!(back.name, "t");
        assert_eq!(back.graphs, ds.graphs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn split_takes_tail() {
        let ds = Dataset {
            name: "t".into(),
            cluster: ClusterSpec::paper_medium(5),
            source_rate: 1e4,
            graphs: vec![tiny_graph(1.0), tiny_graph(2.0), tiny_graph(3.0)],
        };
        let (train, test) = ds.split(1);
        assert_eq!(train.graphs.len(), 2);
        assert_eq!(test.graphs.len(), 1);
        assert_eq!(test.graphs[0].op(crate::NodeId(0)).ipt, 3.0);
    }

    #[test]
    fn split_caps_at_len() {
        let ds = Dataset {
            name: "t".into(),
            cluster: ClusterSpec::paper_medium(5),
            source_rate: 1e4,
            graphs: vec![tiny_graph(1.0)],
        };
        let (train, test) = ds.split(10);
        assert_eq!(train.graphs.len(), 0);
        assert_eq!(test.graphs.len(), 1);
    }

    #[test]
    fn missing_file_names_the_path() {
        let err = Dataset::load(Path::new("/nonexistent/spg-ds.json")).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("/nonexistent/spg-ds.json"), "{text}");
        assert!(matches!(err, DatasetError::Io { .. }));
    }

    #[test]
    fn garbage_json_is_a_parse_error_naming_the_path() {
        let path = save_text("garbage", "{not json");
        let err = Dataset::load(&path).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { .. }));
        assert!(err.to_string().contains("garbage.json"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deep_nesting_is_a_parse_error_naming_the_path() {
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        let with_junk = |depth: usize| {
            let junk = "[".repeat(depth) + &"]".repeat(depth);
            format!("{{\"junk\":{junk},{}", &json[1..])
        };
        // Deep enough that unbounded recursion would overflow the stack.
        let path = save_text("deep", &with_junk(200_000));
        let err = Dataset::load(&path).unwrap_err();
        assert!(matches!(err, DatasetError::Parse { .. }), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("deep.json") && text.contains("nesting deeper than 64"),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
        // The top-level object plus 63 arrays is within the cap.
        let path = save_text("deep-63", &with_junk(63));
        assert_eq!(Dataset::load(&path).unwrap().graphs, tiny_dataset().graphs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dangling_edge_endpoint_is_rejected() {
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        // Point the first graph's edge at a node that does not exist.
        let bad = json.replacen("\"edges\":[[0,1]]", "\"edges\":[[0,9]]", 1);
        assert_ne!(bad, json);
        let path = save_text("dangling", &bad);
        let err = Dataset::load(&path).unwrap_err();
        match &err {
            DatasetError::Graph { index: 0, source } => {
                assert!(
                    matches!(source, GraphError::NodeOutOfRange { .. }),
                    "{source:?}"
                )
            }
            other => panic!("expected Graph error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        let bad = json
            .replacen("\"edges\":[[0,1]]", "\"edges\":[[0,1],[0,1]]", 1)
            .replacen(
                "\"channels\":[{\"payload\":8,\"selectivity\":1}]",
                "\"channels\":[{\"payload\":8,\"selectivity\":1},{\"payload\":8,\"selectivity\":1}]",
                1,
            );
        assert_ne!(bad, json);
        let path = save_text("dup-edge", &bad);
        let err = Dataset::load(&path).unwrap_err();
        match &err {
            DatasetError::Graph { index: 0, source } => {
                assert!(
                    matches!(source, GraphError::DuplicateEdge { .. }),
                    "{source:?}"
                )
            }
            other => panic!("expected Graph error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_finite_and_negative_numbers_are_rejected() {
        // NaN source rate (serialises as null).
        let mut ds = tiny_dataset();
        ds.source_rate = f64::NAN;
        let path = save_text("nan-rate", &serde_json::to_string(&ds).unwrap());
        assert!(matches!(
            Dataset::load(&path).unwrap_err(),
            DatasetError::InvalidSourceRate { .. }
        ));
        std::fs::remove_file(&path).ok();

        // Negative operator cost.
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        let bad = json.replacen("{\"ipt\":1}", "{\"ipt\":-1}", 1);
        assert_ne!(bad, json);
        let path = save_text("neg-ipt", &bad);
        assert!(matches!(
            Dataset::load(&path).unwrap_err(),
            DatasetError::InvalidOperator {
                graph: 0,
                node: 0,
                ..
            }
        ));
        std::fs::remove_file(&path).ok();

        // Negative channel payload.
        let bad = json.replacen("\"payload\":8", "\"payload\":-8", 1);
        assert_ne!(bad, json);
        let path = save_text("neg-payload", &bad);
        assert!(matches!(
            Dataset::load(&path).unwrap_err(),
            DatasetError::InvalidChannel {
                graph: 0,
                edge: 0,
                ..
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inconsistent_adjacency_is_recomputed_on_load() {
        // Corrupt the first graph's topological order; load must rebuild
        // the derived structure from the raw parts rather than trust it.
        let json = serde_json::to_string(&tiny_dataset()).unwrap();
        let bad = json.replacen("\"topo_order\":[0,1]", "\"topo_order\":[1,0]", 1);
        assert_ne!(bad, json);
        let path = save_text("bad-topo", &bad);
        let ds = Dataset::load(&path).unwrap();
        assert_eq!(ds.graphs[0], tiny_graph(1.0));
        std::fs::remove_file(&path).ok();
    }
}
