//! The benchmark's workloads and their set-up (device + generated R and S).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use nocap_model::JoinSpec;
use nocap_storage::device::DeviceRef;
use nocap_storage::{
    BlockStats, FileDevice, FileDeviceBuilder, SimDevice, SyncPolicy, TracedDevice,
};
use nocap_workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// R records (primary keys); ‖R‖ = 2667 pages at 256-byte records.
pub const N_R: usize = 40_000;
/// S records (foreign keys); ‖S‖ = 21334 pages.
pub const N_S: usize = 320_000;
/// Serialized record size of both relations.
pub const RECORD_BYTES: usize = 256;

/// Which base device a workload stores its relations on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// The in-memory `SimDevice`: device calls are CPU work.
    Sim,
    /// The block-layer `FileDevice` with its default read-ahead and
    /// write-behind and `SyncPolicy::None`.
    File,
}

/// One benchmark workload. Why each exists is recorded in `BENCHMARK.json`
/// and `README.md`.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub correlation: Correlation,
    pub buffer_pages: usize,
    pub device: DeviceKind,
    pub threads: usize,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "zipf_spill_sim_t2",
        correlation: Correlation::Zipf { alpha: 1.0 },
        buffer_pages: 256,
        device: DeviceKind::Sim,
        threads: 2,
    },
    Workload {
        name: "uniform_tight_file_t1",
        correlation: Correlation::Uniform,
        buffer_pages: 64,
        device: DeviceKind::File,
        threads: 1,
    },
    Workload {
        name: "zipf_fits_sim_t1",
        correlation: Correlation::Zipf { alpha: 1.0 },
        buffer_pages: 2800,
        device: DeviceKind::Sim,
        threads: 1,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn spec(&self) -> JoinSpec {
        JoinSpec::paper_synthetic(RECORD_BYTES, self.buffer_pages)
    }

    pub fn config(&self, seed: u64) -> SyntheticConfig {
        SyntheticConfig {
            n_r: N_R,
            n_s: N_S,
            record_bytes: RECORD_BYTES,
            correlation: self.correlation,
            mcv_count: N_R / 20,
            seed,
        }
    }
}

/// A built device and the relations generated on it. For a `FileDevice`
/// the backing directory is removed on drop.
pub struct Setup {
    pub wl: GeneratedWorkload,
    pub device: DeviceRef,
    file: Option<Arc<FileDevice>>,
    dir: Option<PathBuf>,
}

impl Setup {
    /// Builds the workload's device under `dir` (wrapped in a latency-
    /// measuring `TracedDevice` when `traced`) and generates R and S on it.
    pub fn build(
        workload: &Workload,
        seed: u64,
        traced: bool,
        dir: &Path,
    ) -> Result<Setup, String> {
        let (base, file, dir): (DeviceRef, _, _) = match workload.device {
            DeviceKind::Sim => (SimDevice::new_ref(), None, None),
            DeviceKind::File => {
                let file = FileDeviceBuilder::new()
                    .at_dir(dir.to_path_buf())
                    .sync_policy(SyncPolicy::None)
                    .build_arc()
                    .map_err(|e| format!("building the file device: {e}"))?;
                (file.clone(), Some(file), Some(dir.to_path_buf()))
            }
        };
        let device = if traced {
            TracedDevice::with_latency_ref(base)
        } else {
            base
        };
        let wl = synthetic::generate(device.clone(), &workload.config(seed))
            .map_err(|e| format!("generating the workload: {e}"))?;
        Ok(Setup {
            wl,
            device,
            file,
            dir,
        })
    }

    /// Block-layer counters; `None` on a `SimDevice`.
    pub fn block_stats(&self) -> Option<BlockStats> {
        self.file.as_ref().map(|f| f.block_stats())
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Builds the workload `repeats` times, each on a fresh device, and returns
/// the last set-up with the median time of one build in seconds.
pub fn timed_setup(
    workload: &Workload,
    seed: u64,
    traced: bool,
    root: &Path,
    repeats: usize,
) -> Result<(Setup, f64), String> {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for i in 0..repeats {
        // Release the previous set-up first, so at most one copy is live.
        drop(last.take());
        let dir = root.join(format!("device-{i}"));
        let started = Instant::now();
        let setup = Setup::build(workload, seed, traced, &dir)?;
        secs.push(started.elapsed().as_secs_f64());
        last = Some(setup);
    }
    let setup = last.ok_or("no set-up was built")?;
    Ok((setup, crate::median(&secs)))
}
