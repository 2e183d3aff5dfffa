//! The MICRAS daemon and its pseudo-files.
//!
//! "The MICRAS daemon is a tool which runs on both the host and device
//! platforms. On the host platform this daemon allows for the configuration
//! of the device, logging of errors, and other common administrative
//! utilities. On the device though, this daemon exposes access to
//! environmental data through pseudo-files mounted on a virtual file
//! system." (§II-D)
//!
//! [`MicrasDaemon`] renders the card's current SMC generation into text
//! files under `/sys/class/micras/`, and [`PowerFileReading`] is the parser
//! a collector uses. Reading a file costs
//! [`crate::MIC_DAEMON_QUERY_COST`] ≈ 0.04 ms — "nearly the same overhead
//! as RAPL … the implementation on both is essentially the same" — but the
//! read runs *on the card*, contending with the application (the paper's
//! trade-off between the daemon and in-band paths).

use crate::card::PhiCard;
use crate::smc::Smc;
use hpc_workloads::{Channel, WorkloadProfile};
use powermodel::DemandTrace;
use simkit::SimTime;
use std::fmt;
use std::sync::Arc;

/// Path of the power pseudo-file.
pub const POWER_FILE: &str = "/sys/class/micras/power";
/// Path of the thermal pseudo-file.
pub const TEMP_FILE: &str = "/sys/class/micras/temp";
/// Path of the frequency pseudo-file.
pub const FREQ_FILE: &str = "/sys/class/micras/freq";
/// Path of the memory pseudo-file.
pub const MEM_FILE: &str = "/sys/class/micras/mem";

/// Pseudo-file read errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfsError {
    /// No file at the path.
    NotFound(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file: {p}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// The device-side daemon.
pub struct MicrasDaemon {
    card: Arc<PhiCard>,
    smc: Arc<Smc>,
    /// Accelerator-memory demand, which drives the memory file.
    accmem: DemandTrace,
}

impl MicrasDaemon {
    /// Start the daemon for `card`/`smc`, exposing the pseudo-files.
    /// `profile` drives the memory-occupancy file.
    pub fn start(card: Arc<PhiCard>, smc: Arc<Smc>, profile: &WorkloadProfile) -> Self {
        MicrasDaemon {
            card,
            smc,
            accmem: profile.demand(Channel::AcceleratorMemory),
        }
    }

    /// Read a pseudo-file at `t` (device-side read): each file renders the
    /// card's current state.
    pub fn read_file(&self, path: &str, t: SimTime) -> Result<String, VfsError> {
        match path {
            POWER_FILE => {
                let r = self.smc.read(&self.card, t);
                let pcie_uw = (self.card.uncore_power(r.generation) * 1e6).round() as u64;
                Ok(format!(
                    "tot0: {} uW\ntot1: {} uW\npcie: {} uW\nvccp: {} uV {} uA\n",
                    r.total_power_uw,
                    r.total_power_uw, // previous generation alias; see parse()
                    pcie_uw,
                    (r.vccp_volts * 1e6).round() as u64,
                    (r.vccp_amps * 1e6).round() as u64,
                ))
            }
            TEMP_FILE => {
                let r = self.smc.read(&self.card, t);
                Ok(format!(
                    "die: {:.0} C\ngddr: {:.0} C\nfin: {:.0} C\nfout: {:.0} C\nfan: {} RPM\n",
                    r.die_temp_c, r.gddr_temp_c, r.intake_temp_c, r.exhaust_temp_c, r.fan_rpm
                ))
            }
            // The card runs at a fixed clock; the file also reports the
            // memory transfer rate in kT/sec (the Table I "Speed" row).
            FREQ_FILE => Ok(
                "core: 1100000 kHz\nmem: 5500000 kT/sec\nmemfreq: 2750000 kHz\nmemvolt: 1500000 uV\n"
                    .to_owned(),
            ),
            MEM_FILE => {
                let total_kib = self.card.spec().memory_mib * 1024;
                let used_kib =
                    (total_kib as f64 * (0.05 + 0.65 * self.accmem.level_at(t))).round() as u64;
                Ok(format!(
                    "total: {} kB\nused: {} kB\nfree: {} kB\n",
                    total_kib,
                    used_kib,
                    total_kib - used_kib
                ))
            }
            _ => Err(VfsError::NotFound(path.to_owned())),
        }
    }
}

/// Parsed contents of the power pseudo-file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerFileReading {
    /// Current-generation total power, µW.
    pub tot0_uw: u64,
    /// Previous-generation total power, µW.
    pub tot1_uw: u64,
    /// PCIe/uncore rail power, µW.
    pub pcie_uw: u64,
    /// Core rail voltage, µV.
    pub vccp_uv: u64,
    /// Core rail current, µA.
    pub vccp_ua: u64,
}

impl PowerFileReading {
    /// Parse the power file. Returns `None` on malformed content.
    pub fn parse(text: &str) -> Option<Self> {
        let mut tot0 = None;
        let mut tot1 = None;
        let mut pcie = None;
        let mut vccp = None;
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match parts.next()? {
                "tot0:" => tot0 = parts.next()?.parse().ok(),
                "tot1:" => tot1 = parts.next()?.parse().ok(),
                "pcie:" => pcie = parts.next()?.parse().ok(),
                "vccp:" => {
                    let uv: u64 = parts.next()?.parse().ok()?;
                    parts.next()?; // "uV"
                    let ua: u64 = parts.next()?.parse().ok()?;
                    vccp = Some((uv, ua));
                }
                _ => {}
            }
        }
        let (vccp_uv, vccp_ua) = vccp?;
        Some(PowerFileReading {
            tot0_uw: tot0?,
            tot1_uw: tot1?,
            pcie_uw: pcie?,
            vccp_uv,
            vccp_ua,
        })
    }

    /// Total power in watts.
    pub fn total_watts(&self) -> f64 {
        self.tot0_uw as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::PhiSpec;
    use hpc_workloads::{Noop, VectorAdd};
    use simkit::NoiseStream;

    fn daemon() -> MicrasDaemon {
        let profile = Noop::figure7().profile();
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(200),
        ));
        let smc = Arc::new(Smc::new(NoiseStream::new(33)));
        MicrasDaemon::start(card, smc, &profile)
    }

    #[test]
    fn power_file_roundtrips_through_parser() {
        let d = daemon();
        let text = d.read_file(POWER_FILE, SimTime::from_secs(60)).unwrap();
        let r = PowerFileReading::parse(&text).expect("parseable");
        assert!(
            (105.0..120.0).contains(&r.total_watts()),
            "noop card at {} W",
            r.total_watts()
        );
        assert!(r.pcie_uw > 0);
        assert!(r.vccp_uv > 1_000_000);
        assert!(r.vccp_ua > 0);
    }

    #[test]
    fn all_four_files_exist() {
        let d = daemon();
        for f in [POWER_FILE, TEMP_FILE, FREQ_FILE, MEM_FILE] {
            assert!(d.read_file(f, SimTime::from_secs(1)).is_ok(), "{f}");
        }
        let missing = d.read_file("/sys/class/micras/volt", SimTime::ZERO);
        assert_eq!(
            missing.unwrap_err().to_string(),
            "no such file: /sys/class/micras/volt"
        );
    }

    #[test]
    fn temp_file_contents() {
        let d = daemon();
        let text = d.read_file(TEMP_FILE, SimTime::from_secs(60)).unwrap();
        assert!(text.contains("die:"));
        assert!(text.contains("fan:"));
        assert!(text.contains("RPM"));
    }

    #[test]
    fn mem_file_adds_up() {
        let d = daemon();
        let text = d.read_file(MEM_FILE, SimTime::from_secs(60)).unwrap();
        let get = |key: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert_eq!(get("total:"), get("used:") + get("free:"));
        assert_eq!(get("total:"), 8 * 1024 * 1024);
    }

    /// The four pseudo-files' exact bytes at two instants of a busy card
    /// (VectorAdd moves power, temperatures, fan and memory occupancy
    /// between them; the frequency file is fixed).
    #[test]
    fn pseudo_files_render_byte_for_byte() {
        let profile = VectorAdd::figure5().profile();
        let card = Arc::new(PhiCard::new(
            PhiSpec::default(),
            &profile,
            DemandTrace::zero(),
            SimTime::from_secs(200),
        ));
        let d = MicrasDaemon::start(card, Arc::new(Smc::new(NoiseStream::new(33))), &profile);
        let freq =
            "core: 1100000 kHz\nmem: 5500000 kT/sec\nmemfreq: 2750000 kHz\nmemvolt: 1500000 uV\n";
        let expect = [
            (
                SimTime::from_secs(1),
                [
                    "tot0: 112805077 uW\ntot1: 112805077 uW\npcie: 20000000 uW\nvccp: 1050000 uV 59047619 uA\n",
                    "die: 54 C\ngddr: 50 C\nfin: 30 C\nfout: 40 C\nfan: 2466 RPM\n",
                    freq,
                    "total: 8388608 kB\nused: 419430 kB\nfree: 7969178 kB\n",
                ],
            ),
            (
                SimTime::from_millis(60_010),
                [
                    "tot0: 201151266 uW\ntot1: 201151266 uW\npcie: 20500000 uW\nvccp: 1050000 uV 115714286 uA\n",
                    "die: 69 C\ngddr: 61 C\nfin: 30 C\nfout: 48 C\nfan: 3435 RPM\n",
                    freq,
                    "total: 8388608 kB\nused: 5054136 kB\nfree: 3334472 kB\n",
                ],
            ),
        ];
        for (t, texts) in expect {
            for (path, text) in [POWER_FILE, TEMP_FILE, FREQ_FILE, MEM_FILE]
                .iter()
                .zip(texts)
            {
                assert_eq!(d.read_file(path, t).unwrap(), text, "{path} at {t}");
            }
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(PowerFileReading::parse("").is_none());
        assert!(PowerFileReading::parse("tot0: abc uW").is_none());
        assert!(PowerFileReading::parse("tot0: 5 uW\ntot1: 5 uW\n").is_none());
    }

    #[test]
    fn reads_are_stable_within_a_generation() {
        let d = daemon();
        let t = SimTime::from_millis(60_010);
        assert_eq!(
            d.read_file(POWER_FILE, t).unwrap(),
            d.read_file(POWER_FILE, t).unwrap()
        );
    }
}
