//! No dataset or checkpoint file, however damaged, makes a load panic.
//!
//! Every truncation of a one-graph dataset, about a hundred evenly spaced
//! truncations of a checkpoint, seeded byte flips of both, an empty file,
//! invalid UTF-8, a field nested 200,000 deep, valid JSON of the wrong
//! shape and checkpoints whose matrices do not fit their config are
//! written to disk and loaded, each under `catch_unwind`. A load is `Ok`,
//! or an error that names the file. What loads is used: every graph of an
//! `Ok` dataset and a small graph under every `Ok` checkpoint's model each
//! go through a forward, which must not panic either.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use spg::gen::{DatasetSpec, Setting};
use spg::graph::serialize::Dataset;
use spg::graph::{Channel, ClusterSpec, Operator, StreamGraph, StreamGraphBuilder};
use spg::model::{Checkpoint, CoarsenConfig, CoarsenModel, TrainerState};
use spg::nn::Matrix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn temp_dir_for(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spg-bad-files-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every prefix of `text` at `cuts` evenly spaced lengths, the full
/// length excluded.
fn truncations(text: &[u8], cuts: usize) -> Vec<Vec<u8>> {
    let cuts = cuts.min(text.len());
    (0..cuts)
        .map(|k| text[..k * text.len() / cuts].to_vec())
        .collect()
}

/// `count` copies of `text`, each with one seeded byte set to a seeded
/// value (any byte, so some copies are not UTF-8).
fn byte_flips(text: &[u8], count: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut bytes = text.to_vec();
            let i = rng.gen_range(0..bytes.len());
            bytes[i] = rng.gen_range(0..=255u8);
            bytes
        })
        .collect()
}

/// Files that damage any JSON document the same way.
fn generic_damage(json: &str) -> Vec<Vec<u8>> {
    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    [
        Vec::new(),
        b"\xff\xfe{}".to_vec(),
        format!("{{\"junk\":{deep},{}", &json[1..]).into_bytes(),
        b"[1,2,3]".to_vec(),
        b"{}".to_vec(),
        b"null".to_vec(),
        b"\"x\"".to_vec(),
    ]
    .into()
}

fn small_graph() -> StreamGraph {
    let mut b = StreamGraphBuilder::new();
    let ops: Vec<_> = [100.0, 200.0, 50.0]
        .map(|ipt| b.add_node(Operator::new(ipt)))
        .into();
    b.add_edge(ops[0], ops[1], Channel::new(50.0)).unwrap();
    b.add_edge(ops[1], ops[2], Channel::new(20.0)).unwrap();
    b.finish().unwrap()
}

/// Load `bytes` as `path` with `load` under `catch_unwind`, then `use_it`
/// on what loaded. Returns whether it loaded; panics with the case if
/// anything panicked.
fn load_case<T, E: std::fmt::Display>(
    path: &Path,
    bytes: &[u8],
    load: impl Fn(&Path) -> Result<T, E>,
    use_it: impl Fn(T),
    error_ok: impl Fn(&E) -> bool,
) -> bool {
    std::fs::write(path, bytes).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| match load(path) {
        Ok(value) => {
            use_it(value);
            Ok(())
        }
        Err(e) => Err(e),
    }));
    let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(120)]);
    match outcome {
        Err(_) => panic!("panicked on {} bytes starting {shown:?}", bytes.len()),
        Ok(Ok(())) => true,
        Ok(Err(e)) => {
            assert!(error_ok(&e), "error does not name the file: {e}");
            false
        }
    }
}

#[test]
fn damaged_datasets_load_or_fail_with_a_named_error() {
    let dir = temp_dir_for("dataset");
    let path = dir.join("ds.json");
    let ds = spg::gen::generate_dataset(&DatasetSpec::scaled_down(Setting::Small), 1, 1);
    let json = serde_json::to_string(&ds).unwrap();
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut ChaCha8Rng::seed_from_u64(0));

    let mut cases = truncations(json.as_bytes(), json.len());
    cases.extend(byte_flips(json.as_bytes(), 300, 11));
    cases.extend(generic_damage(&json));
    let loaded = cases
        .iter()
        .filter(|bytes| {
            load_case(
                &path,
                bytes,
                Dataset::load,
                |ds| {
                    for g in &ds.graphs {
                        model.predict_probs(g, &ds.cluster, ds.source_rate);
                    }
                },
                |e| e.to_string().contains("ds.json"),
            )
        })
        .count();
    // Flips inside numbers and names leave the file loadable.
    assert!(
        loaded > 0 && loaded < cases.len(),
        "{loaded} of {}",
        cases.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A default-config checkpoint with trainer state, so Adam moments are
/// in the file too.
fn checkpoint() -> Checkpoint {
    let model = CoarsenModel::new(CoarsenConfig::default(), &mut ChaCha8Rng::seed_from_u64(3));
    let mut ckpt = Checkpoint::from_model(&model);
    ckpt.trainer = Some(TrainerState {
        epoch: 1,
        seed: 7,
        rng_word_pos_hi: 0,
        rng_word_pos_lo: 99,
        adam_steps: 1,
        adam_m: ckpt.params.clone(),
        adam_v: ckpt.params.clone(),
        buffers: vec![],
        quarantined: vec![],
        skipped_samples: 0,
        quarantined_graphs: 0,
        rollbacks: 0,
    });
    ckpt
}

/// The ways a checkpoint's parameters can fail to fit its config.
fn mismatched_checkpoints() -> Vec<(&'static str, Checkpoint)> {
    let mut missing = checkpoint();
    missing.params.pop();
    let mut short = checkpoint();
    short.params[0].data.truncate(3);
    let mut reshaped = checkpoint();
    reshaped.params[0] = Matrix {
        rows: 3,
        cols: 1,
        data: vec![0.5; 3],
    };
    let mut short_moment = checkpoint();
    if let Some(t) = &mut short_moment.trainer {
        t.adam_v[2].data.pop();
    }
    vec![
        ("a params entry missing", missing),
        ("params[0] cut to 3 values", short),
        ("params[0] made 3x1", reshaped),
        ("adam_v[2] one value short", short_moment),
    ]
}

#[test]
fn damaged_checkpoints_load_or_fail_with_a_named_error() {
    let dir = temp_dir_for("checkpoint");
    let path = dir.join("model.json");
    let json = serde_json::to_string(&checkpoint()).unwrap();
    let (graph, cluster) = (small_graph(), ClusterSpec::paper_medium(4));

    let mut cases = truncations(json.as_bytes(), 100);
    cases.extend(byte_flips(json.as_bytes(), 100, 12));
    cases.extend(generic_damage(&json));
    cases.extend(
        mismatched_checkpoints()
            .iter()
            .map(|(_, ckpt)| serde_json::to_string(ckpt).unwrap().into_bytes()),
    );
    let loaded = cases
        .iter()
        .filter(|bytes| {
            load_case(
                &path,
                bytes,
                Checkpoint::load,
                |ckpt| {
                    ckpt.into_model().predict_probs(&graph, &cluster, 1e4);
                },
                |e| e.to_string().contains("model.json"),
            )
        })
        .count();
    assert!(
        loaded > 0 && loaded < cases.len(),
        "{loaded} of {}",
        cases.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn load_refuses_parameters_that_do_not_fit_the_config() {
    let dir = temp_dir_for("mismatch");
    for (what, ckpt) in mismatched_checkpoints() {
        let path = dir.join("mismatch.json");
        std::fs::write(&path, serde_json::to_string(&ckpt).unwrap()).unwrap();
        let err = Checkpoint::load(&path)
            .map(drop)
            .expect_err(what)
            .to_string();
        assert!(
            err.contains("invalid checkpoint") && err.contains("mismatch.json"),
            "{what}: {err}"
        );
    }
    // The intact file loads.
    let path = dir.join("intact.json");
    checkpoint().save(&path).unwrap();
    Checkpoint::load(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
