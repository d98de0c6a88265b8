//! Embedding table specifications.
//!
//! DLRM's embedding layer (paper §2.1) is a set of tables, one per sparse
//! categorical feature. Each table is a `rows × dim` matrix of `f32`. The
//! Criteo datasets used by the paper have **26** sparse features with row
//! cardinalities spanning a few entries to tens of millions.

/// Specification of one embedding table.
///
/// # Examples
///
/// ```
/// use recross_workload::table::EmbeddingTableSpec;
///
/// let spec = EmbeddingTableSpec::new(1_000_000, 64);
/// assert_eq!(spec.bytes(), 1_000_000 * 64 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EmbeddingTableSpec {
    /// Number of embedding rows (categorical cardinality).
    pub rows: u64,
    /// Embedding vector dimension (paper: 16–256, default 64).
    pub dim: u32,
    /// Bytes per element (4 for `f32`, the paper's data type).
    pub dtype_bytes: u32,
}

impl EmbeddingTableSpec {
    /// Creates a spec for an `f32` table.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `dim == 0`.
    pub fn new(rows: u64, dim: u32) -> Self {
        assert!(rows > 0, "table must have at least one row");
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            rows,
            dim,
            dtype_bytes: 4,
        }
    }

    /// Total size of the table in bytes.
    pub fn bytes(&self) -> u64 {
        self.rows * self.vector_bytes()
    }

    /// Size of a single embedding vector in bytes.
    pub fn vector_bytes(&self) -> u64 {
        u64::from(self.dim) * u64::from(self.dtype_bytes)
    }
}

/// Row cardinalities of the 26 sparse features of the Criteo Kaggle Display
/// Advertising dataset (the paper's primary dataset, its ref. 2).
///
/// These are the well-known cardinalities of features C1–C26 as published
/// with the DLRM reference implementation.
pub const CRITEO_KAGGLE_CARDINALITIES: [u64; 26] = [
    1_460, 583, 10_131_227, 2_202_608, 305, 24, 12_517, 633, 3, 93_145, 5_683, 8_351_593, 3_194,
    27, 14_992, 5_461_306, 10, 5_652, 2_173, 4, 7_046_547, 18, 15, 286_181, 105, 142_572,
];

/// Builds the 26-table Criteo-Kaggle-like embedding layer used throughout the
/// evaluation, with a common embedding dimension.
///
/// # Examples
///
/// ```
/// use recross_workload::table::criteo_kaggle_tables;
///
/// let tables = criteo_kaggle_tables(64);
/// assert_eq!(tables.len(), 26);
/// assert!(tables.iter().any(|t| t.rows > 10_000_000));
/// ```
pub fn criteo_kaggle_tables(dim: u32) -> Vec<EmbeddingTableSpec> {
    CRITEO_KAGGLE_CARDINALITIES
        .iter()
        .map(|&rows| EmbeddingTableSpec::new(rows, dim))
        .collect()
}

/// A reduced-cardinality variant of [`criteo_kaggle_tables`] for fast unit
/// tests and criterion benches: same *shape* of the cardinality spectrum
/// (each table scaled down by `factor`, minimum 4 rows).
pub fn scaled_criteo_tables(dim: u32, factor: u64) -> Vec<EmbeddingTableSpec> {
    assert!(factor > 0, "scale factor must be positive");
    CRITEO_KAGGLE_CARDINALITIES
        .iter()
        .map(|&rows| EmbeddingTableSpec::new((rows / factor).max(4), dim))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_sizes() {
        let s = EmbeddingTableSpec::new(10, 32);
        assert_eq!(s.vector_bytes(), 128);
        assert_eq!(s.bytes(), 1280);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        EmbeddingTableSpec::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        EmbeddingTableSpec::new(1, 0);
    }

    #[test]
    fn criteo_has_long_tail_of_cardinalities() {
        let tables = criteo_kaggle_tables(64);
        let big = tables.iter().filter(|t| t.rows > 1_000_000).count();
        let small = tables.iter().filter(|t| t.rows < 1_000).count();
        assert!(big >= 5, "several tables are huge");
        assert!(small >= 8, "several tables are tiny");
    }

    #[test]
    fn scaled_preserves_count_and_min() {
        let t = scaled_criteo_tables(16, 1000);
        assert_eq!(t.len(), 26);
        assert!(t.iter().all(|s| s.rows >= 4));
    }

    #[test]
    fn total_footprint_is_gigabytes_at_dim_64() {
        let total: u64 = criteo_kaggle_tables(64).iter().map(|t| t.bytes()).sum();
        // ~33.8M rows * 256B ≈ 8.7 GB: embedding layer dominates model size.
        assert!(total > 8 * 1024 * 1024 * 1024u64);
    }
}
