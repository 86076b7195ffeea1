//! Set-up: generate the meter dataset from the seed, deploy a fresh store over
//! the TCP transport, and upload or convert the containers a workload needs.

use bytes::Bytes;
use scoop_common::{Result, ScoopError};
use scoop_core::{EtlSpec, ScoopConfig, ScoopContext};
use scoop_objectstore::SwiftCluster;
use scoop_workload::generator::meter_schema;
use scoop_workload::{GeneratorConfig, MeterDataset};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Compute-side worker threads. This box has two cores; the one client plus
/// its two workers and the store's server threads already fill them.
pub const WORKERS: usize = 2;

/// Container names. The SQL table is always `largeMeter`; sessions alias it
/// onto whichever container the workload reads.
pub const PLAIN: &str = "largemeter";
pub const ZONED: &str = "zoned";
pub const COLUMNAR: &str = "largemetercol";
pub const PUT_PLAIN: &str = "putplain";
pub const PUT_ZONED: &str = "putzoned";

/// Dataset and partitioning sizes.
///
/// The fleet reports once a day, so 100 000 time-major rows span 500 days and
/// `date LIKE '2015-01%'` keeps 31 of them: 6.2 % of the rows, Table I's row
/// selectivity of about 94 %. Four objects split in two by `chunk_size` give
/// eight tasks per query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub meters: usize,
    pub interval_minutes: u32,
    pub objects: usize,
    pub rows_per_object: usize,
    pub chunk_size: u64,
    /// `zoneindex` block size for the `zoned` and `putzoned` containers.
    pub block_bytes: u64,
    /// Rows per row group of the columnar conversion.
    pub row_group_rows: usize,
}

impl Scale {
    /// What the driver runs: 4 × 25 000 rows, about 8.2 MB of CSV.
    pub const FULL: Scale = Scale {
        meters: 200,
        interval_minutes: 24 * 60,
        objects: 4,
        rows_per_object: 25_000,
        chunk_size: 1 << 20,
        block_bytes: 64 * 1024,
        row_group_rows: 10_000,
    };

    /// `--quick`: 4 × 5 000 rows (100 days), for the unit tests.
    pub const QUICK: Scale = Scale {
        rows_per_object: 5_000,
        chunk_size: 256 * 1024,
        row_group_rows: 2_000,
        ..Scale::FULL
    };
}

/// Which containers a workload reads or writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Needs {
    pub plain: bool,
    pub zoned: bool,
    pub columnar: bool,
    /// Empty `putplain` / `putzoned` containers plus one object to offer.
    pub ingest: bool,
}

/// Where set-up time went, for the per-layer metrics that move `setup_s` only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_us: u64,
    pub encode_us: u64,
}

/// A deployed store with its generated inputs.
pub struct Deployment {
    pub ctx: Arc<ScoopContext>,
    pub scale: Scale,
    /// The generated CSV objects, in name order (one, for an ingest
    /// workload: the object every round offers).
    pub objects: Vec<(String, Bytes)>,
    /// CSV bytes of the dataset: the logical size every query answers over.
    pub dataset_bytes: u64,
    /// `(csv, columnar)` stored bytes when the columnar container was built.
    pub columnar_bytes: Option<(u64, u64)>,
    pub times: SetupTimes,
    /// Dropped last, after `ctx` (fields drop in this order). A `SwiftClient`
    /// lets go of its cluster before its connection pool, so when the client
    /// holds the last handle the cluster's TCP front end is joined while the
    /// pool's keep-alive sockets are still open, and every server worker sits
    /// out its 5-second idle timeout. Holding the cluster here closes the
    /// sockets first and tear-down takes milliseconds.
    _cluster: Arc<SwiftCluster>,
}

/// Parameters of the `zoneindex` PUT storlet for the meter schema.
pub fn zoneindex_params(block_bytes: u64) -> HashMap<String, String> {
    let mut params = HashMap::new();
    params.insert("schema".to_string(), meter_schema().names().join(","));
    params.insert("header".to_string(), "1".to_string());
    params.insert("block".to_string(), block_bytes.to_string());
    params
}

/// Generate, deploy and upload. Everything here is timed as `setup_s`.
pub fn deploy(scale: Scale, seed: u64, needs: Needs) -> Result<Deployment> {
    let started = Instant::now();
    let mut times = SetupTimes::default();

    let generate = Instant::now();
    let mut generator = MeterDataset::new(&GeneratorConfig {
        seed,
        meters: scale.meters,
        interval_minutes: scale.interval_minutes,
        ..Default::default()
    });
    let object_count = if needs.ingest { 1 } else { scale.objects };
    let objects: Vec<(String, Bytes)> = (0..object_count)
        .map(|i| {
            (
                format!("part-{i:05}.csv"),
                generator.csv_object(scale.rows_per_object),
            )
        })
        .collect();
    times.generate_us = generate.elapsed().as_micros() as u64;
    let dataset_bytes = objects.iter().map(|(_, data)| data.len() as u64).sum();

    let ctx = ScoopContext::new(ScoopConfig {
        workers: WORKERS,
        chunk_size: scale.chunk_size,
        transport_tcp: true,
        ..Default::default()
    })?;
    if !ctx.client().is_tcp() {
        return Err(ScoopError::Internal(
            "deployment is not on the TCP transport".into(),
        ));
    }

    if needs.plain || needs.columnar {
        ctx.upload_csv(PLAIN, objects.clone(), None)?;
    }
    if needs.zoned {
        let etl = EtlSpec {
            storlets: "zoneindex".into(),
            params: zoneindex_params(scale.block_bytes),
        };
        ctx.upload_csv(ZONED, objects.clone(), Some(&etl))?;
    }
    let mut columnar_bytes = None;
    if needs.columnar {
        let encode = Instant::now();
        columnar_bytes = Some(ctx.convert_to_columnar(PLAIN, COLUMNAR, scale.row_group_rows)?);
        times.encode_us = encode.elapsed().as_micros() as u64;
    }
    if needs.ingest {
        ctx.client().create_container(PUT_PLAIN)?;
        ctx.client().create_container(PUT_ZONED)?;
    }

    times.total_s = started.elapsed().as_secs_f64();
    let cluster = ctx.cluster().clone();
    Ok(Deployment {
        ctx,
        scale,
        objects,
        dataset_bytes,
        columnar_bytes,
        times,
        _cluster: cluster,
    })
}
