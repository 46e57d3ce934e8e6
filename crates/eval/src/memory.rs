//! Table VII memory accounting: the dense purified tensor `F̂` versus the
//! structures the theorems let CubeLSI keep.
//!
//! Reverse-engineering the paper's numbers shows the "S and Y⁽²⁾" column
//! counts `Σ ∈ R^{J₂×J₂}` plus `Y⁽²⁾ ∈ R^{I₂×J₂}` in 8-byte floats — e.g.
//! Last.fm at c = 50: `(67² + 3326·67) · 8 B = 1.8 MB`, exactly the
//! published figure. [`MemoryAccounting`] therefore reports three numbers:
//! the dense `F̂`, the paper's `Σ + Y⁽²⁾` pair, and the full decomposition
//! (`S` + all three factors) for completeness.

/// Byte accounting for one dataset / decomposition configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccounting {
    /// Tensor dimensions `(I₁, I₂, I₃)` = (users, tags, resources).
    pub dims: (usize, usize, usize),
    /// Core dimensions `(J₁, J₂, J₃)`.
    pub core_dims: (usize, usize, usize),
}

const F64_BYTES: u128 = 8;

impl MemoryAccounting {
    /// Builds the accounting from dimensions and reduction ratios
    /// (`Jₙ = round(Iₙ/cₙ)`, clamped to ≥ 1).
    pub fn from_ratios(dims: (usize, usize, usize), c: (f64, f64, f64)) -> Self {
        let j = |i: usize, c: f64| ((i as f64 / c).round() as usize).clamp(1, i.max(1));
        MemoryAccounting {
            dims,
            core_dims: (j(dims.0, c.0), j(dims.1, c.1), j(dims.2, c.2)),
        }
    }

    /// Bytes of the dense purified tensor `F̂` (`I₁·I₂·I₃` doubles) — what
    /// a theorem-less implementation would have to materialize.
    pub fn dense_purified_bytes(&self) -> u128 {
        let (i1, i2, i3) = self.dims;
        i1 as u128 * i2 as u128 * i3 as u128 * F64_BYTES
    }

    /// Bytes of the paper's Table VII "S and Y⁽²⁾" column: `Σ = J₂×J₂`
    /// plus `Y⁽²⁾ = I₂×J₂`.
    pub fn sigma_y2_bytes(&self) -> u128 {
        let i2 = self.dims.1 as u128;
        let j2 = self.core_dims.1 as u128;
        (j2 * j2 + i2 * j2) * F64_BYTES
    }

    /// Bytes of the complete decomposition: core `S` plus all three factor
    /// matrices.
    pub fn full_decomposition_bytes(&self) -> u128 {
        let (i1, i2, i3) = self.dims;
        let (j1, j2, j3) = self.core_dims;
        let core = j1 as u128 * j2 as u128 * j3 as u128;
        let factors = i1 as u128 * j1 as u128 + i2 as u128 * j2 as u128 + i3 as u128 * j3 as u128;
        (core + factors) * F64_BYTES
    }
}

/// Formats a byte count the way the paper's Table VII does
/// ("7.0 TB", "98 GB", "8.8 MB").
pub fn format_bytes(bytes: u128) -> String {
    const UNITS: [(&str, u128); 5] = [
        ("PB", 1u128 << 50),
        ("TB", 1u128 << 40),
        ("GB", 1u128 << 30),
        ("MB", 1u128 << 20),
        ("KB", 1u128 << 10),
    ];
    for (unit, size) in UNITS {
        if bytes >= size {
            let v = bytes as f64 / size as f64;
            return if v >= 100.0 {
                format!("{v:.0} {unit}")
            } else {
                format!("{v:.1} {unit}")
            };
        }
    }
    format!("{bytes} B")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table II cleaned dimensions.
    const DELICIOUS: (usize, usize, usize) = (28_939, 7_342, 4_118);
    const BIBSONOMY: (usize, usize, usize) = (732, 4_702, 35_708);
    const LASTFM: (usize, usize, usize) = (3_897, 3_326, 2_849);
    const C50: (f64, f64, f64) = (50.0, 50.0, 50.0);

    #[test]
    fn lastfm_reproduces_paper_figures() {
        let m = MemoryAccounting::from_ratios(LASTFM, C50);
        assert_eq!(m.core_dims, (78, 67, 57));
        // Paper: "36.9 billion entries" in F (§IV-C) and S+Y⁽²⁾ = 1.8 MB.
        let entries = m.dense_purified_bytes() / F64_BYTES;
        assert!(
            (entries as f64 / 1e9 - 36.9).abs() < 0.1,
            "entries {entries}"
        );
        let decimal_mb = m.sigma_y2_bytes() as f64 / 1e6;
        assert!((decimal_mb - 1.8).abs() < 0.1, "decimal MB = {decimal_mb}");
    }

    #[test]
    fn delicious_reproduces_paper_figures() {
        let m = MemoryAccounting::from_ratios(DELICIOUS, C50);
        // Paper Table VII: 7.0 TB dense, 8.8 MB compressed (decimal units,
        // 8-byte floats — the only accounting that reproduces both).
        let decimal_tb = m.dense_purified_bytes() as f64 / 1e12;
        assert!((decimal_tb - 7.0).abs() < 0.1, "decimal TB = {decimal_tb}");
        let decimal_mb = m.sigma_y2_bytes() as f64 / 1e6;
        assert!((decimal_mb - 8.8).abs() < 0.2, "decimal MB = {decimal_mb}");
    }

    #[test]
    fn bibsonomy_orders_of_magnitude() {
        let m = MemoryAccounting::from_ratios(BIBSONOMY, C50);
        // The paper quotes 98 GB; f64·decimal accounting gives ~983 GB —
        // either way the compressed form wins by >10⁴× (the table's point).
        let decimal_mb = m.sigma_y2_bytes() as f64 / 1e6;
        assert!((decimal_mb - 3.6).abs() < 0.7, "decimal MB = {decimal_mb}"); // paper: 3.0 MB
        assert!(m.dense_purified_bytes() as f64 / m.sigma_y2_bytes() as f64 > 1e4);
    }

    #[test]
    fn full_decomposition_larger_than_sigma_y2() {
        let m = MemoryAccounting::from_ratios(LASTFM, C50);
        assert!(m.full_decomposition_bytes() > m.sigma_y2_bytes());
        assert!(m.full_decomposition_bytes() < m.dense_purified_bytes());
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.0 KB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.0 MB");
        assert_eq!(format_bytes(3 * (1u128 << 40)), "3.0 TB");
        assert_eq!(format_bytes(150 * (1u128 << 30)), "150 GB");
    }

    #[test]
    fn ratio_clamping() {
        let m = MemoryAccounting::from_ratios((3, 3, 3), (100.0, 100.0, 100.0));
        assert_eq!(m.core_dims, (1, 1, 1));
    }
}
