//! The environmental-data capability matrix (Table I).
//!
//! Table I of the paper compares, row by row, which environmental data each
//! of the four mechanisms can provide. Here the matrix is a first-class
//! value: each platform crate implements `capabilities()` returning its
//! column, and the test suite asserts those columns against
//! [`paper_matrix`], the reconstruction of the published table.
//!
//! **Fidelity note** (recorded in DESIGN.md/EXPERIMENTS.md): the published
//! PDF's check-marks do not survive text extraction, so the exact ✓/✗
//! pattern of `paper_matrix` is reconstructed from the paper's prose (§II,
//! §IV) and vendor documentation. The N/A cells *are* visible in the
//! extracted text and are reproduced exactly.

use std::collections::BTreeMap;
use std::fmt;

/// The four platforms compared in Table I, in the paper's column order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Platform {
    /// Intel Xeon Phi / MIC.
    XeonPhi,
    /// NVIDIA GPUs via NVML.
    Nvml,
    /// IBM Blue Gene/Q.
    BlueGeneQ,
    /// Intel RAPL.
    Rapl,
    /// IBM POWER9 (On-Chip Controller). Not a Table I column — the paper
    /// predates the machine — so it is deliberately absent from
    /// [`Platform::ALL`]; `occ-sim` states its own capability column.
    Power9,
}

impl Platform {
    /// All platforms in column order.
    pub const ALL: [Platform; 4] = [
        Platform::XeonPhi,
        Platform::Nvml,
        Platform::BlueGeneQ,
        Platform::Rapl,
    ];

    /// Column header as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Platform::XeonPhi => "Xeon Phi",
            Platform::Nvml => "NVML",
            Platform::BlueGeneQ => "Blue Gene/Q",
            Platform::Rapl => "RAPL",
            Platform::Power9 => "POWER9",
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Row groups of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MetricGroup {
    /// "Total Power Consumption (Watts)" block.
    Power,
    /// "Temperature" block.
    Temperature,
    /// "Main Memory" block.
    MainMemory,
    /// "Processor" block.
    Processor,
    /// "Fans" block.
    Fans,
    /// "Limits" block.
    Limits,
}

impl MetricGroup {
    /// Group header as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            MetricGroup::Power => "Total Power Consumption (Watts)",
            MetricGroup::Temperature => "Temperature",
            MetricGroup::MainMemory => "Main Memory",
            MetricGroup::Processor => "Processor",
            MetricGroup::Fans => "Fans",
            MetricGroup::Limits => "Limits",
        }
    }
}

/// The 21 rows of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Metric {
    /// Total power consumption in watts.
    TotalPower,
    /// Power-rail voltage readings.
    Voltage,
    /// Power-rail current readings.
    Current,
    /// PCI Express power.
    PciExpressPower,
    /// Main-memory power.
    MainMemoryPower,
    /// Die temperature.
    DieTemp,
    /// DDR/GDDR memory temperature.
    DdrGddrTemp,
    /// Whole-device temperature.
    DeviceTemp,
    /// Intake (fan-in) temperature.
    IntakeTemp,
    /// Exhaust (fan-out) temperature.
    ExhaustTemp,
    /// Main memory used.
    MemUsed,
    /// Main memory free.
    MemFree,
    /// Memory speed in kT/sec.
    MemSpeed,
    /// Memory frequency.
    MemFrequency,
    /// Memory voltage.
    MemVoltage,
    /// Memory clock rate.
    MemClockRate,
    /// Processor voltage.
    ProcVoltage,
    /// Processor frequency.
    ProcFrequency,
    /// Processor clock rate.
    ProcClockRate,
    /// Fan speed in RPM.
    FanSpeed,
    /// Get/set power limit.
    PowerLimitGetSet,
}

impl Metric {
    /// All rows in the paper's print order.
    pub const ALL: [Metric; 21] = [
        Metric::TotalPower,
        Metric::Voltage,
        Metric::Current,
        Metric::PciExpressPower,
        Metric::MainMemoryPower,
        Metric::DieTemp,
        Metric::DdrGddrTemp,
        Metric::DeviceTemp,
        Metric::IntakeTemp,
        Metric::ExhaustTemp,
        Metric::MemUsed,
        Metric::MemFree,
        Metric::MemSpeed,
        Metric::MemFrequency,
        Metric::MemVoltage,
        Metric::MemClockRate,
        Metric::ProcVoltage,
        Metric::ProcFrequency,
        Metric::ProcClockRate,
        Metric::FanSpeed,
        Metric::PowerLimitGetSet,
    ];

    /// Row group.
    pub fn group(self) -> MetricGroup {
        use Metric::*;
        match self {
            TotalPower | Voltage | Current | PciExpressPower | MainMemoryPower => {
                MetricGroup::Power
            }
            DieTemp | DdrGddrTemp | DeviceTemp | IntakeTemp | ExhaustTemp => {
                MetricGroup::Temperature
            }
            MemUsed | MemFree | MemSpeed | MemFrequency | MemVoltage | MemClockRate => {
                MetricGroup::MainMemory
            }
            ProcVoltage | ProcFrequency | ProcClockRate => MetricGroup::Processor,
            FanSpeed => MetricGroup::Fans,
            PowerLimitGetSet => MetricGroup::Limits,
        }
    }

    /// Row label as printed in the paper.
    pub fn label(self) -> &'static str {
        use Metric::*;
        match self {
            TotalPower => "Total Power Consumption (Watts)",
            Voltage => "Voltage",
            Current => "Current",
            PciExpressPower => "PCI Express",
            MainMemoryPower => "Main Memory",
            DieTemp => "Die",
            DdrGddrTemp => "DDR/GDDR",
            DeviceTemp => "Device",
            IntakeTemp => "Intake (Fan-In)",
            ExhaustTemp => "Exhaust (Fan-Out)",
            MemUsed => "Used",
            MemFree => "Free",
            MemSpeed => "Speed (kT/sec)",
            MemFrequency => "Frequency",
            MemVoltage => "Voltage",
            MemClockRate => "Clock Rate",
            ProcVoltage => "Voltage",
            ProcFrequency => "Frequency",
            ProcClockRate => "Clock Rate",
            FanSpeed => "Speed (In RPM)",
            PowerLimitGetSet => "Get/Set Power Limit",
        }
    }
}

/// One cell of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Support {
    /// The mechanism provides this datum.
    Yes,
    /// The mechanism does not provide this datum.
    No,
    /// The datum is meaningless for this platform (printed "N/A").
    NotApplicable,
}

impl Support {
    /// Cell text as rendered in the regenerated table.
    pub fn symbol(self) -> &'static str {
        match self {
            Support::Yes => "Y",
            Support::No => "-",
            Support::NotApplicable => "N/A",
        }
    }
}

/// A full platforms × metrics matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapabilityMatrix {
    cells: BTreeMap<(Platform, Metric), Support>,
}

impl CapabilityMatrix {
    /// An empty matrix (every cell defaults to [`Support::No`]).
    pub fn new() -> Self {
        CapabilityMatrix {
            cells: BTreeMap::new(),
        }
    }

    /// Set one cell.
    pub fn set(&mut self, platform: Platform, metric: Metric, support: Support) {
        self.cells.insert((platform, metric), support);
    }

    /// Read one cell.
    pub fn get(&self, platform: Platform, metric: Metric) -> Support {
        self.cells
            .get(&(platform, metric))
            .copied()
            .unwrap_or(Support::No)
    }

    /// One platform's column, in row order.
    pub fn column(&self, platform: Platform) -> Vec<(Metric, Support)> {
        Metric::ALL
            .iter()
            .map(|&m| (m, self.get(platform, m)))
            .collect()
    }

    /// Install a whole column (as returned by a backend's `capabilities()`).
    pub fn set_column(&mut self, platform: Platform, column: &[(Metric, Support)]) {
        for &(m, s) in column {
            self.set(platform, m, s);
        }
    }

    /// Render the matrix in the paper's layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<34}{:>10}{:>7}{:>13}{:>7}\n",
            "", "Xeon Phi", "NVML", "Blue Gene/Q", "RAPL"
        ));
        let mut current_group: Option<MetricGroup> = None;
        for &m in &Metric::ALL {
            if current_group != Some(m.group()) {
                current_group = Some(m.group());
                // TotalPower is its own group header row in the paper.
                if m != Metric::TotalPower {
                    out.push_str(&format!("{}\n", m.group().label()));
                }
            }
            let indent = if m == Metric::TotalPower { "" } else { "  " };
            out.push_str(&format!(
                "{:<34}{:>10}{:>7}{:>13}{:>7}\n",
                format!("{indent}{}", m.label()),
                self.get(Platform::XeonPhi, m).symbol(),
                self.get(Platform::Nvml, m).symbol(),
                self.get(Platform::BlueGeneQ, m).symbol(),
                self.get(Platform::Rapl, m).symbol(),
            ));
        }
        out
    }
}

impl Default for CapabilityMatrix {
    fn default() -> Self {
        Self::new()
    }
}

/// The reconstruction of the published Table I (see the module docs for the
/// fidelity caveat). This is the ground truth the platform crates' own
/// `capabilities()` introspection is tested against.
pub fn paper_matrix() -> CapabilityMatrix {
    use Metric::*;
    use Platform::*;
    use Support::*;
    let mut m = CapabilityMatrix::new();
    // (metric, phi, nvml, bgq, rapl)
    let rows: [(Metric, Support, Support, Support, Support); 21] = [
        (TotalPower, Yes, Yes, Yes, Yes),
        (Voltage, Yes, No, Yes, No),
        (Current, Yes, No, Yes, No),
        (PciExpressPower, Yes, No, Yes, NotApplicable),
        (MainMemoryPower, Yes, No, Yes, Yes),
        (DieTemp, Yes, Yes, No, No),
        (DdrGddrTemp, Yes, No, No, No),
        (DeviceTemp, Yes, Yes, Yes, No),
        (IntakeTemp, Yes, No, NotApplicable, NotApplicable),
        (ExhaustTemp, Yes, No, NotApplicable, NotApplicable),
        (MemUsed, Yes, Yes, No, No),
        (MemFree, Yes, Yes, No, No),
        (MemSpeed, Yes, No, No, No),
        (MemFrequency, Yes, Yes, No, No),
        (MemVoltage, Yes, No, Yes, No),
        (MemClockRate, Yes, Yes, No, No),
        (ProcVoltage, Yes, No, Yes, No),
        (ProcFrequency, Yes, Yes, No, No),
        (ProcClockRate, Yes, Yes, No, No),
        (FanSpeed, Yes, Yes, NotApplicable, NotApplicable),
        (PowerLimitGetSet, Yes, Yes, No, Yes),
    ];
    for (metric, phi, nvml, bgq, rapl) in rows {
        m.set(XeonPhi, metric, phi);
        m.set(Nvml, metric, nvml);
        m.set(BlueGeneQ, metric, bgq);
        m.set(Rapl, metric, rapl);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_covered_once() {
        assert_eq!(Metric::ALL.len(), 21);
        let mut seen = std::collections::HashSet::new();
        for m in Metric::ALL {
            assert!(seen.insert(m), "duplicate metric {m:?}");
        }
    }

    #[test]
    fn groups_partition_rows() {
        use MetricGroup::*;
        let count = |g: MetricGroup| Metric::ALL.iter().filter(|m| m.group() == g).count();
        assert_eq!(count(Power), 5);
        assert_eq!(count(Temperature), 5);
        assert_eq!(count(MainMemory), 6);
        assert_eq!(count(Processor), 3);
        assert_eq!(count(Fans), 1);
        assert_eq!(count(Limits), 1);
    }

    #[test]
    fn default_cell_is_no() {
        let m = CapabilityMatrix::new();
        assert_eq!(m.get(Platform::Rapl, Metric::TotalPower), Support::No);
    }

    #[test]
    fn paper_matrix_universal_row() {
        // "Just about the only data point collectible on all platforms is
        // total power consumption" (paper, §IV).
        let m = paper_matrix();
        for p in Platform::ALL {
            assert_eq!(m.get(p, Metric::TotalPower), Support::Yes, "{p}");
        }
        // And it is the *only* row with four Yes cells.
        let universal: Vec<Metric> = Metric::ALL
            .iter()
            .copied()
            .filter(|&metric| {
                Platform::ALL
                    .iter()
                    .all(|&p| m.get(p, metric) == Support::Yes)
            })
            .collect();
        assert_eq!(universal, vec![Metric::TotalPower]);
    }

    #[test]
    fn paper_matrix_na_cells_match_extracted_text() {
        // These N/A placements are literally visible in the extracted PDF
        // text and must match exactly.
        let m = paper_matrix();
        use Metric::*;
        use Platform::*;
        use Support::NotApplicable as NA;
        assert_eq!(m.get(Rapl, PciExpressPower), NA);
        for metric in [IntakeTemp, ExhaustTemp, FanSpeed] {
            assert_eq!(m.get(BlueGeneQ, metric), NA, "{metric:?}");
            assert_eq!(m.get(Rapl, metric), NA, "{metric:?}");
        }
    }

    #[test]
    fn phi_is_the_most_capable_platform() {
        // §II-D: the Phi exposes the broadest telemetry; the paper's own
        // Table I shows a full Xeon Phi column.
        let m = paper_matrix();
        let yes_count = |p: Platform| {
            Metric::ALL
                .iter()
                .filter(|&&metric| m.get(p, metric) == Support::Yes)
                .count()
        };
        let phi = yes_count(Platform::XeonPhi);
        for p in [Platform::Nvml, Platform::BlueGeneQ, Platform::Rapl] {
            assert!(phi > yes_count(p), "{p} >= Phi");
        }
        assert_eq!(phi, 21);
    }

    #[test]
    fn render_contains_all_rows_and_groups() {
        let text = paper_matrix().render();
        assert!(text.contains("Xeon Phi"));
        assert!(text.contains("Blue Gene/Q"));
        assert!(text.contains("Temperature"));
        assert!(text.contains("Get/Set Power Limit"));
        assert!(text.contains("N/A"));
        assert_eq!(text.lines().count(), 1 + 21 + 5); // header + rows + group headers
    }

    #[test]
    fn column_roundtrip() {
        let m = paper_matrix();
        let col = m.column(Platform::Nvml);
        let mut m2 = CapabilityMatrix::new();
        m2.set_column(Platform::Nvml, &col);
        assert_eq!(m2.column(Platform::Nvml), col);
    }
}
