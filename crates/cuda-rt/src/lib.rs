//! # cuda-rt
//!
//! Host-side CUDA runtime model: streams, the three launch paths the paper
//! benchmarks (`<<<>>>`, `cudaLaunchCooperativeKernel`,
//! `cudaLaunchCooperativeKernelMultiDevice`), `cudaDeviceSynchronize`, host
//! threads with OpenMP-style barriers, peer copies, and jittered host
//! timestamps for the uncertainty analysis of §IX-D.

pub mod host;

pub use host::{HostSim, LaunchArtifacts, LaunchRecord};
