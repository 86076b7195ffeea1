//! Extending the active-storage layer: write, deploy and invoke a custom
//! storlet — "a third party integrating a new pushdown filter only needs to
//! contribute the logic; the deployment and execution of the filter is
//! managed by the system".
//!
//! The custom filter here anonymizes meter ids on the fly (the paper's
//! datasets are anonymized versions of production data), and is then
//! pipelined with the built-in compression storlet.
//!
//! ```text
//! cargo run -p scoop-examples --bin custom_filter
//! ```

use bytes::Bytes;
use scoop_common::{ByteStream, Result};
use scoop_core::{ScoopConfig, ScoopContext};
use scoop_csv::record::{parse_fields, write_record};
use scoop_objectstore::request::Request;
use scoop_objectstore::ObjectPath;
use scoop_storlets::api::map_records;
use scoop_storlets::middleware::{encode_params, headers};
use scoop_storlets::{InvocationContext, Storlet};
use std::collections::HashMap;
use std::sync::Arc;

/// Replaces the first CSV field with a salted hash — streamed, like every
/// storlet: `map_records` splits the object into records and counts them.
struct AnonymizeStorlet;

impl Storlet for AnonymizeStorlet {
    fn name(&self) -> &str {
        "anonymize"
    }

    fn invoke(&self, input: ByteStream, ctx: InvocationContext) -> Result<ByteStream> {
        let salt = ctx.params.get("salt").cloned().unwrap_or_default();
        ctx.logger.log("anonymize: started");
        Ok(map_records(input, ctx.metrics, move |record, out| {
            let mut cells: Vec<String> =
                parse_fields(record).iter().map(|c| c.to_string()).collect();
            if let Some(first) = cells.first_mut() {
                let h = scoop_common::hash::hash64(format!("{salt}:{first}").as_bytes());
                *first = format!("anon-{h:012x}");
            }
            let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
            write_record(out, &refs);
            true
        }))
    }
}

fn main() -> Result<()> {
    let ctx = ScoopContext::new(ScoopConfig::default())?;

    // Deploy the new filter "on-the-fly" — no store restart, no code changes
    // to the object store.
    ctx.engine().deploy(Arc::new(AnonymizeStorlet));
    println!("deployed storlets: {:?}\n", ctx.engine().deployed());

    let data = "M001,2015-01-03,100.5\nM002,2015-01-03,200.0\n";
    ctx.upload_csv(
        "readings",
        vec![("jan.csv".to_string(), Bytes::from(data.to_string()))],
        None,
    )?;

    // Invoke it on a GET, pipelined with compression.
    let mut params = HashMap::new();
    params.insert("salt".to_string(), "s3cret".to_string());
    let path = ObjectPath::new("AUTH_gridpocket", "readings", "jan.csv")?;
    let req = Request::get(path)
        .with_header(headers::RUN_STORLET, "anonymize,rlecompress")
        .with_header(headers::PARAMETERS, encode_params(&params));
    let compressed = ctx.client().request(req)?.read_body()?;
    let restored =
        scoop_storlets::filters::compress::rle_decompress(&compressed)?;
    println!("anonymized + compressed response ({} bytes):", compressed.len());
    println!("{}", String::from_utf8_lossy(&restored));
    assert!(!String::from_utf8_lossy(&restored).contains("M001"));
    Ok(())
}
