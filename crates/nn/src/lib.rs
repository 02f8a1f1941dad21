//! # spg-nn
//!
//! A minimal reverse-mode automatic-differentiation engine and neural-net
//! toolkit, purpose-built for the CPU REINFORCE training in this
//! reproduction (the paper used PyTorch on a GPU; the models here are small
//! enough — two GNN hops plus MLP heads — that a few dense `f32` matrix
//! kernels suffice).
//!
//! * [`Matrix`] — dense row-major `f32` matrix with the handful of kernels
//!   the models need.
//! * [`Tape`] — a gradient tape: forward ops append nodes, `backward`
//!   walks them in reverse. Graph-structured ops (row gather, segment
//!   mean) make GNN message passing differentiable.
//! * [`tanh`] — the one f32 tanh (fdlibm port + AVX2 kernel, bit-identical).
//! * [`Param`] / [`Adam`] — trainable parameters with Adam state.
//! * [`layers`] — `Linear`, `Mlp`, `LstmCell` built on the tape.
//!
//! Every op has a finite-difference gradient check in its tests.

pub mod init;
pub mod layers;
pub mod matrix;
pub mod optim;
pub mod param;
pub mod quant;
pub mod scratch;
pub mod tanh;
pub mod tape;

pub use layers::{InferLayer, Linear, LstmCell, Mlp};
pub use matrix::{matmul_mode, set_matmul_mode, stable_sigmoid, MatmulMode, Matrix};
pub use optim::Adam;
pub use param::{Param, ParamSet};
pub use quant::QuantizedLinear;
pub use scratch::InferenceScratch;
pub use tape::{Tape, Var};
