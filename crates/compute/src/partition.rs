//! Partition discovery.
//!
//! "Following the Hadoop RDD creation, a process called partition discovery
//! takes place ... the underlying storage driver checks the total size of the
//! data specified by the user and divides the total size by the HDFS chunk
//! size" — and the paper notes this constant "is not adapted to object
//! stores" (Section VII), which the ablation bench explores by sweeping it.

use crate::connector::{ObjectInfo, StorageConnector};
use scoop_common::Result;
use scoop_csv::split::plan_splits;

/// Default chunk size: 128 MB, the classic HDFS block size.
pub const DEFAULT_CHUNK_SIZE: u64 = 128 * 1024 * 1024;

/// One task's input: a logical byte range of one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputPartition {
    /// Task index within the job.
    pub index: usize,
    /// Object name within the table location.
    pub object: String,
    /// Object size in bytes.
    pub object_size: u64,
    /// Logical split start (inclusive).
    pub start: u64,
    /// Logical split end (exclusive).
    pub end: u64,
}

impl InputPartition {
    /// A partition covering a whole object.
    pub fn whole(index: usize, object: String, size: u64) -> Self {
        InputPartition { index, object, object_size: size, start: 0, end: size }
    }

    /// Split length in bytes (0 for an inverted split, as for an empty one).
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the split is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Discover partitions for all objects under a location: each object is
/// divided into `chunk_size` splits.
pub fn discover(
    connector: &dyn StorageConnector,
    location: &str,
    prefix: Option<&str>,
    chunk_size: u64,
) -> Result<Vec<InputPartition>> {
    discover_where(connector, location, prefix, chunk_size, |_, splits| splits)
}

/// [`discover`], with `select` choosing, one object at a time, which of its
/// `[start, end)` splits become partitions. The survivors are numbered
/// densely in object-name order, so a dropped split leaves no hole.
pub fn discover_where(
    connector: &dyn StorageConnector,
    location: &str,
    prefix: Option<&str>,
    chunk_size: u64,
    mut select: impl FnMut(&ObjectInfo, Vec<(u64, u64)>) -> Vec<(u64, u64)>,
) -> Result<Vec<InputPartition>> {
    let mut parts = Vec::new();
    let mut objects = connector.list(location, prefix)?;
    objects.sort_by(|a, b| a.name.cmp(&b.name));
    for obj in objects {
        for (s, e) in select(&obj, plan_splits(obj.size, chunk_size)) {
            parts.push(InputPartition {
                index: parts.len(),
                object: obj.name.clone(),
                object_size: obj.size,
                start: s,
                end: e,
            });
        }
    }
    Ok(parts)
}

/// Discover one partition per object (columnar tables parallelize by object).
pub fn discover_whole_objects(
    connector: &dyn StorageConnector,
    location: &str,
    prefix: Option<&str>,
) -> Result<Vec<InputPartition>> {
    let mut objects = connector.list(location, prefix)?;
    objects.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(objects
        .into_iter()
        .enumerate()
        .map(|(i, o)| InputPartition::whole(i, o.name, o.size))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connector::MemoryConnector;
    use bytes::Bytes;

    #[test]
    fn discovery_splits_every_object() {
        let c = MemoryConnector::new();
        c.put("loc", "a", Bytes::from(vec![0u8; 250]));
        c.put("loc", "b", Bytes::from(vec![0u8; 100]));
        c.put("loc", "empty", Bytes::new());
        let parts = discover(c.as_ref(), "loc", None, 100).unwrap();
        // a → 3 splits, b → 1, empty → 0.
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].object, "a");
        assert_eq!((parts[2].start, parts[2].end), (200, 250));
        assert_eq!(parts[3].object, "b");
        // Indexes are dense and ordered.
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.index, i);
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn selected_splits_are_numbered_densely() {
        let c = MemoryConnector::new();
        c.put("loc", "a", Bytes::from(vec![0u8; 250]));
        c.put("loc", "b", Bytes::from(vec![0u8; 100]));
        // Keep a's last split and all of b.
        let parts = discover_where(c.as_ref(), "loc", None, 100, |obj, splits| {
            let keep = if obj.name == "a" { 2 } else { 0 };
            splits.into_iter().skip(keep).collect()
        })
        .unwrap();
        let got: Vec<_> = parts.iter().map(|p| (p.index, p.object.as_str(), p.start)).collect();
        assert_eq!(got, vec![(0, "a", 200), (1, "b", 0)]);
    }

    #[test]
    fn inverted_partition_is_empty() {
        let p = InputPartition { index: 0, object: "x".into(), object_size: 9, start: 7, end: 3 };
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
    }

    #[test]
    fn whole_object_discovery() {
        let c = MemoryConnector::new();
        c.put("loc", "x", Bytes::from(vec![0u8; 10]));
        c.put("loc", "y", Bytes::from(vec![0u8; 20]));
        let parts = discover_whole_objects(c.as_ref(), "loc", None).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 10);
        assert_eq!(parts[1].len(), 20);
    }

    #[test]
    fn prefix_filters() {
        let c = MemoryConnector::new();
        c.put("loc", "2015/01.csv", Bytes::from(vec![0u8; 10]));
        c.put("loc", "2016/01.csv", Bytes::from(vec![0u8; 10]));
        let parts = discover(c.as_ref(), "loc", Some("2015/"), 100).unwrap();
        assert_eq!(parts.len(), 1);
    }
}
