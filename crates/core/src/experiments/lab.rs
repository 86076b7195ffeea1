//! The shared measurement environment for all experiments.

use crate::context::{ScoopConfig, ScoopContext};
use bytes::Bytes;
use scoop_cluster::simulate::simulate;
use scoop_cluster::{CostModel, SimJob, SimMode, SimReport, Topology};
use scoop_common::{Result, ScoopError};
use scoop_compute::{ExecutionMode, QueryOutcome};
use scoop_connector::RunOn;
use scoop_workload::selectivity::{measure, SelectivityReport};
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::sync::Arc;
use std::time::Duration;

/// Experiment sizing knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Master seed.
    pub seed: u64,
    /// Meters in the fleet (vid space `M00000..`).
    pub meters: usize,
    /// Minutes between readings (larger ⇒ longer time span per row count).
    pub interval_minutes: u32,
    /// Rows per uploaded object.
    pub rows_per_object: usize,
    /// Number of objects uploaded.
    pub objects: usize,
    /// Compute worker threads.
    pub workers: usize,
    /// Partition chunk size in bytes.
    pub chunk_size: u64,
}

impl Scale {
    /// Tiny: used by unit tests and `repro --quick`.
    pub fn quick() -> Scale {
        Scale {
            seed: 42,
            meters: 40,
            interval_minutes: 24 * 60,
            rows_per_object: 1_200,
            objects: 2,
            workers: 4,
            chunk_size: 16 * 1024,
        }
    }

    /// Standard: a few MB of data; what the `repro` binary uses.
    pub fn standard() -> Scale {
        Scale {
            seed: 42,
            meters: 200,
            interval_minutes: 12 * 60,
            rows_per_object: 12_000,
            objects: 4,
            workers: 8,
            chunk_size: 128 * 1024,
        }
    }
}

/// One laptop-scale run of both arms over the same query.
#[derive(Debug)]
pub struct MeasuredRun {
    /// Vanilla-arm outcome.
    pub vanilla: QueryOutcome,
    /// Pushdown-arm outcome.
    pub pushdown: QueryOutcome,
    /// Measured transfer ratio (pushdown bytes / vanilla bytes).
    pub transfer_ratio: f64,
    /// Wall-clock speedup at laptop scale (noisy; directional only).
    pub wall_speedup: f64,
}

/// The measurement environment.
pub struct Lab {
    /// The deployed system.
    pub ctx: Arc<ScoopContext>,
    /// CSV container name (the SQL table name).
    pub container: String,
    /// Total CSV bytes uploaded.
    pub dataset_bytes: u64,
    /// Concatenated uploaded data (what `repro calibration` times).
    pub sample_csv: Vec<u8>,
    /// A year-spanning sample of the same fleet, used for selectivity
    /// measurement (the paper's datasets span many months, so a query's
    /// one-month window is a small fraction of the data).
    pub year_csv: Vec<u8>,
    /// Fleet size (for synthetic-query cutoffs).
    pub meters: usize,
    scale: Scale,
}

impl Lab {
    /// Build a deployment and upload a generated dataset.
    pub fn new(scale: &Scale) -> Result<Lab> {
        Self::with_run_on(scale, RunOn::ObjectNode)
    }

    /// Build with an explicit storlet execution stage.
    pub fn with_run_on(scale: &Scale, run_on: RunOn) -> Result<Lab> {
        let ctx = ScoopContext::new(ScoopConfig {
            workers: scale.workers,
            chunk_size: scale.chunk_size,
            run_on,
            ..Default::default()
        })?;
        let mut gen = MeterDataset::new(&GeneratorConfig {
            seed: scale.seed,
            meters: scale.meters,
            interval_minutes: scale.interval_minutes,
            ..Default::default()
        });
        let mut objects: Vec<(String, Bytes)> = Vec::with_capacity(scale.objects);
        let mut sample = Vec::new();
        for i in 0..scale.objects {
            let data = gen.csv_object(scale.rows_per_object);
            sample.extend_from_slice(&data);
            objects.push((format!("part-{i:03}.csv"), data));
        }
        let report = ctx.upload_csv("largemeter", objects, None)?;
        // Year-spanning selectivity sample: same fleet (same seed/meters),
        // readings spaced so ~300 waves cover ~20 months.
        let mut year_gen = MeterDataset::new(&GeneratorConfig {
            seed: scale.seed,
            meters: scale.meters,
            interval_minutes: 2 * 24 * 60,
            ..Default::default()
        });
        let year_csv = year_gen.csv_object(scale.meters * 300).to_vec();
        Ok(Lab {
            ctx,
            container: "largemeter".to_string(),
            dataset_bytes: report.bytes_in,
            sample_csv: sample,
            year_csv,
            meters: scale.meters,
            scale: scale.clone(),
        })
    }

    /// The sizing this lab was built with.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }

    /// Run a query in one mode.
    pub fn run(&self, sql: &str, mode: ExecutionMode) -> Result<QueryOutcome> {
        self.ctx.query(&self.container, sql, mode)
    }

    /// Measured Table-I-style selectivities of a query, evaluated over the
    /// year-spanning sample (matching the paper's long-horizon datasets).
    pub fn selectivity(&self, sql: &str) -> Result<SelectivityReport> {
        measure(sql, &self.year_csv)
    }

    /// Run both arms, check result equality, measure bytes and wall times.
    pub fn measure(&self, sql: &str) -> Result<MeasuredRun> {
        let vanilla = self.run(sql, ExecutionMode::Vanilla)?;
        let pushdown = self.run(sql, ExecutionMode::Pushdown)?;
        if vanilla.result != pushdown.result {
            return Err(ScoopError::Internal(format!(
                "pushdown transparency violated for query: {sql}"
            )));
        }
        let transfer_ratio = if vanilla.metrics.bytes_transferred == 0 {
            0.0
        } else {
            pushdown.metrics.bytes_transferred as f64
                / vanilla.metrics.bytes_transferred as f64
        };
        let wall_speedup = ratio(vanilla.metrics.wall, pushdown.metrics.wall);
        Ok(MeasuredRun { vanilla, pushdown, transfer_ratio, wall_speedup })
    }
}

fn ratio(a: Duration, b: Duration) -> f64 {
    let (a, b) = (a.as_secs_f64(), b.as_secs_f64().max(1e-9));
    a / b
}

// ---------------------------------------------------------------------------
// Testbed projection helpers
// ---------------------------------------------------------------------------

/// Simulate one arm on the OSIC testbed.
pub fn project(mode: SimMode, dataset_bytes: u64, data_selectivity: f64) -> SimReport {
    let tasks = (dataset_bytes / (128 * 1024 * 1024)).max(1) as usize;
    simulate(
        &SimJob { dataset_bytes, data_selectivity, mode, tasks },
        &Topology::osic(),
        &CostModel::paper_default(),
    )
}

/// Projected `S_Q` of pushdown vs vanilla for a measured selectivity.
pub fn projected_speedup(dataset_bytes: u64, data_selectivity: f64) -> f64 {
    let vanilla = project(SimMode::Vanilla, dataset_bytes, 0.0);
    let scoop = project(SimMode::Pushdown, dataset_bytes, data_selectivity);
    vanilla.duration / scoop.duration
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_measures() {
        let lab = Lab::new(&Scale::quick()).unwrap();
        assert!(lab.dataset_bytes > 100_000);
        let run = lab
            .measure(
                "SELECT vid, sum(index) as t FROM largeMeter \
                 WHERE city LIKE 'Rotterdam' GROUP BY vid ORDER BY vid",
            )
            .unwrap();
        assert!(run.transfer_ratio < 0.3, "transfer ratio {}", run.transfer_ratio);
        assert_eq!(run.vanilla.result, run.pushdown.result);
    }

    #[test]
    fn projection_helpers() {
        let s = projected_speedup(scoop_common::ByteSize::gb(500).as_u64(), 0.9);
        assert!(s > 5.0, "{s}");
    }
}
