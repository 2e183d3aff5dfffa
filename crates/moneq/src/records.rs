//! Columnar storage for collected records.
//!
//! §III's MonEQ "allocates an array of a custom C struct"; the first
//! reproduction stored a `Vec<DataPoint>`, which pays two heap `String`s
//! per record for labels that a mechanism draws from a vocabulary of a
//! handful (`nodecard` × `Chip Core`/`DRAM`/…). [`Records`] stores the same
//! data as **column arenas**: device and domain labels are interned once
//! into small per-file tables, and each record is a fixed-width row across
//! dense columns — one timestamp, two label indices, four `f64` channels,
//! and a flags byte carrying staleness plus per-channel presence bits.
//! The tables keep each label as it arrived: a backend's borrowed
//! `&'static str` is stored as the same borrow, never copied. Appending a
//! poll's records allocates nothing in steady state, and output rendering
//! iterates the arenas zero-copy through [`DataPointRef`]. A label's table
//! index is its id ([`Records::label_ids`]): within one arena, equal ids
//! mean equal labels, which lets a consumer key per-label state by two
//! integers instead of two strings.
//!
//! Label tables are filled in first-appearance order, so two [`Records`]
//! built from the same logical sequence — serial or parallel, rendered or
//! re-parsed — are structurally identical and derive `PartialEq` compares
//! them exactly.

use crate::reading::DataPoint;
use simkit::SimTime;
use std::borrow::Cow;

const STALE: u8 = 1 << 0;
const HAS_VOLTS: u8 = 1 << 1;
const HAS_AMPS: u8 = 1 << 2;
const HAS_TEMP: u8 = 1 << 3;

/// The collected records of one session, stored columnar (see module docs).
///
/// The column block lives behind a lazily allocated box: an empty arena is
/// one null pointer, not ten empty `Vec` headers. A cluster launch builds
/// one [`Records`] per rank before any poll fires, and at 49k ranks the
/// difference (8 bytes vs 240 bytes of zeros per session) is a measurable
/// slice of launch wall clock. The box is created on the first append and
/// never removed, so `cols.is_some()` ⟺ the arena holds at least one
/// record — which keeps derived `PartialEq` exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Records {
    cols: Option<Box<Columns>>,
}

/// The dense column block of a non-empty [`Records`] arena.
#[derive(Clone, Debug, Default, PartialEq)]
struct Columns {
    devices: Vec<Cow<'static, str>>,
    domains: Vec<Cow<'static, str>>,
    timestamps: Vec<SimTime>,
    device_ids: Vec<u32>,
    domain_ids: Vec<u32>,
    watts: Vec<f64>,
    volts: Vec<f64>,
    amps: Vec<f64>,
    temp_c: Vec<f64>,
    flags: Vec<u8>,
}

/// A zero-copy view of one record in a [`Records`] arena: the same fields
/// as [`DataPoint`] with the labels borrowed from the intern tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataPointRef<'a> {
    /// When the poll fired (virtual time).
    pub timestamp: SimTime,
    /// Device within the node (see [`DataPoint::device`]).
    pub device: &'a str,
    /// Domain within the device (see [`DataPoint::domain`]).
    pub domain: &'a str,
    /// Power, watts.
    pub watts: f64,
    /// Rail voltage, volts (platforms that expose it).
    pub volts: Option<f64>,
    /// Rail current, amperes (platforms that expose it).
    pub amps: Option<f64>,
    /// Temperature, °C (platforms that expose it).
    pub temp_c: Option<f64>,
    /// Degradation marker (see [`DataPoint::stale`]).
    pub stale: bool,
}

impl DataPointRef<'_> {
    /// Materialize an owned [`DataPoint`].
    pub fn to_point(&self) -> DataPoint {
        DataPoint {
            timestamp: self.timestamp,
            device: self.device.to_owned().into(),
            domain: self.domain.to_owned().into(),
            watts: self.watts,
            volts: self.volts,
            amps: self.amps,
            temp_c: self.temp_c,
            stale: self.stale,
        }
    }
}

/// The id of `label` in `table`, appending it on first appearance. A
/// borrowed label usually meets the very same borrow in the table, so the
/// address check settles most lookups without comparing bytes.
fn intern(table: &mut Vec<Cow<'static, str>>, label: Cow<'static, str>) -> u32 {
    let same = |t: &Cow<'static, str>| std::ptr::eq(t.as_ref(), label.as_ref()) || *t == label;
    match table.iter().position(same) {
        Some(i) => i as u32,
        None => {
            table.push(label);
            (table.len() - 1) as u32
        }
    }
}

impl Records {
    /// An empty arena.
    pub fn new() -> Self {
        Records::default()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.cols.as_ref().map_or(0, |c| c.timestamps.len())
    }

    /// `true` when no records have been collected.
    pub fn is_empty(&self) -> bool {
        self.cols.is_none()
    }

    /// Append one record, interning its labels (moves the label in on its
    /// first appearance; no allocation afterwards).
    pub fn push(&mut self, p: DataPoint) {
        let c = self.cols.get_or_insert_with(Default::default);
        let device = intern(&mut c.devices, p.device);
        let domain = intern(&mut c.domains, p.domain);
        let mut flags = 0u8;
        if p.stale {
            flags |= STALE;
        }
        if p.volts.is_some() {
            flags |= HAS_VOLTS;
        }
        if p.amps.is_some() {
            flags |= HAS_AMPS;
        }
        if p.temp_c.is_some() {
            flags |= HAS_TEMP;
        }
        c.timestamps.push(p.timestamp);
        c.device_ids.push(device);
        c.domain_ids.push(domain);
        c.watts.push(p.watts);
        c.volts.push(p.volts.unwrap_or(0.0));
        c.amps.push(p.amps.unwrap_or(0.0));
        c.temp_c.push(p.temp_c.unwrap_or(0.0));
        c.flags.push(flags);
    }

    /// Append a stale copy of record `i` stamped at `timestamp` — the
    /// last-good-value substitution of the fault layer, with no label or
    /// record allocation at all.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn push_stale_copy(&mut self, i: usize, timestamp: SimTime) {
        // An empty arena has no record `i`; inserting the empty block lets
        // the index below raise the same out-of-range panic as before.
        let c = self.cols.get_or_insert_with(Default::default);
        c.timestamps.push(timestamp);
        c.device_ids.push(c.device_ids[i]);
        c.domain_ids.push(c.domain_ids[i]);
        c.watts.push(c.watts[i]);
        c.volts.push(c.volts[i]);
        c.amps.push(c.amps[i]);
        c.temp_c.push(c.temp_c[i]);
        c.flags.push(c.flags[i] | STALE);
    }

    /// The record at index `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<DataPointRef<'_>> {
        let c = self.cols.as_deref()?;
        if i >= c.timestamps.len() {
            return None;
        }
        let flags = c.flags[i];
        Some(DataPointRef {
            timestamp: c.timestamps[i],
            device: &c.devices[c.device_ids[i] as usize],
            domain: &c.domains[c.domain_ids[i] as usize],
            watts: c.watts[i],
            volts: (flags & HAS_VOLTS != 0).then(|| c.volts[i]),
            amps: (flags & HAS_AMPS != 0).then(|| c.amps[i]),
            temp_c: (flags & HAS_TEMP != 0).then(|| c.temp_c[i]),
            stale: flags & STALE != 0,
        })
    }

    /// The interned `(device, domain)` label ids of record `i`, or `None`
    /// past the end. Ids are table indices in first-appearance order and
    /// never change while the arena lives, so two records of one arena
    /// carry equal ids exactly when their labels are equal.
    pub fn label_ids(&self, i: usize) -> Option<(u32, u32)> {
        let c = self.cols.as_deref()?;
        Some((*c.device_ids.get(i)?, *c.domain_ids.get(i)?))
    }

    /// The first record, when any.
    pub fn first(&self) -> Option<DataPointRef<'_>> {
        self.get(0)
    }

    /// The last record, when any.
    pub fn last(&self) -> Option<DataPointRef<'_>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Iterate the records zero-copy.
    pub fn iter(&self) -> RecordsIter<'_> {
        RecordsIter {
            records: self,
            next: 0,
        }
    }

    /// Materialize the whole arena as owned [`DataPoint`]s (tests and
    /// call sites that mutate records in place).
    pub fn to_vec(&self) -> Vec<DataPoint> {
        self.iter().map(|p| p.to_point()).collect()
    }
}

impl From<Vec<DataPoint>> for Records {
    fn from(points: Vec<DataPoint>) -> Self {
        let mut r = Records::new();
        for p in points {
            r.push(p);
        }
        r
    }
}

impl FromIterator<DataPoint> for Records {
    fn from_iter<I: IntoIterator<Item = DataPoint>>(iter: I) -> Self {
        let mut r = Records::new();
        for p in iter {
            r.push(p);
        }
        r
    }
}

/// Zero-copy iterator over a [`Records`] arena.
#[derive(Clone, Debug)]
pub struct RecordsIter<'a> {
    records: &'a Records,
    next: usize,
}

impl<'a> Iterator for RecordsIter<'a> {
    type Item = DataPointRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let p = self.records.get(self.next)?;
        self.next += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.records.len().saturating_sub(self.next);
        (n, Some(n))
    }
}

impl ExactSizeIterator for RecordsIter<'_> {}

impl<'a> IntoIterator for &'a Records {
    type Item = DataPointRef<'a>;
    type IntoIter = RecordsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<DataPoint> {
        vec![
            DataPoint {
                timestamp: SimTime::from_millis(560),
                device: "nodecard".into(),
                domain: "Chip Core".into(),
                watts: 700.25,
                volts: Some(0.9),
                amps: Some(778.06),
                temp_c: None,
                stale: false,
            },
            DataPoint::power(SimTime::from_millis(560), "nodecard", "DRAM", 237.0),
            DataPoint {
                stale: true,
                ..DataPoint::power(SimTime::from_millis(1120), "nodecard", "Chip Core", 699.0)
            },
        ]
    }

    #[test]
    fn roundtrips_through_columns() {
        let points = sample();
        let r: Records = points.clone().into();
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.to_vec(), points);
        // Views agree field-by-field with the owned records.
        for (view, p) in r.iter().zip(&points) {
            assert_eq!(view.timestamp, p.timestamp);
            assert_eq!(view.device, p.device);
            assert_eq!(view.domain, p.domain);
            assert_eq!(view.watts, p.watts);
            assert_eq!(view.volts, p.volts);
            assert_eq!(view.amps, p.amps);
            assert_eq!(view.temp_c, p.temp_c);
            assert_eq!(view.stale, p.stale);
        }
        assert_eq!(r.first().map(|p| p.watts), Some(700.25));
        assert_eq!(r.last().map(|p| p.stale), Some(true));
        assert!(r.get(3).is_none());
    }

    #[test]
    fn labels_are_interned_once() {
        let r: Records = sample().into();
        let c = r.cols.as_deref().expect("non-empty");
        assert_eq!(c.devices, vec!["nodecard"]);
        assert_eq!(c.domains, vec!["Chip Core", "DRAM"]);
    }

    #[test]
    fn lent_labels_are_stored_as_lent_and_keyed_by_id() {
        let mut r = Records::new();
        r.push(DataPoint::power(SimTime::ZERO, "nodecard", "DRAM", 1.0));
        r.push(DataPoint::power(
            SimTime::ZERO,
            String::from("nodecard"),
            "HSS",
            2.0,
        ));
        r.push(DataPoint::power(SimTime::ZERO, "nodecard", "DRAM", 3.0));
        let c = r.cols.as_deref().expect("non-empty");
        // The lent label went in as the same borrow; an equal owned label
        // later in the run interns onto it.
        assert!(matches!(c.devices[..], [Cow::Borrowed("nodecard")]));
        assert_eq!(r.label_ids(0), Some((0, 0)));
        assert_eq!(r.label_ids(1), Some((0, 1)));
        assert_eq!(r.label_ids(2), r.label_ids(0));
        assert_eq!(r.label_ids(3), None);
        assert_eq!(Records::new().label_ids(0), None);
    }

    #[test]
    fn equality_is_order_of_first_appearance() {
        // Same logical records always produce the same tables, whether
        // built by push, collect, or a render/parse round trip.
        let a: Records = sample().into();
        let b: Records = sample().into_iter().collect();
        assert_eq!(a, b);
        let c: Records = a.to_vec().into();
        assert_eq!(a, c);
    }

    #[test]
    fn stale_copy_duplicates_row_with_marker() {
        let mut r: Records = sample().into();
        r.push_stale_copy(1, SimTime::from_millis(1680));
        let copy = r.last().expect("pushed");
        assert_eq!(copy.timestamp, SimTime::from_millis(1680));
        assert_eq!(copy.device, "nodecard");
        assert_eq!(copy.domain, "DRAM");
        assert_eq!(copy.watts, 237.0);
        assert_eq!(copy.volts, None);
        assert!(copy.stale);
        // The source row is untouched.
        assert!(!r.get(1).expect("source").stale);
    }

    #[test]
    fn absent_channels_stay_absent_through_stale_copies() {
        let mut r = Records::new();
        r.push(DataPoint {
            volts: Some(0.0), // present-but-zero must stay Some
            ..DataPoint::power(SimTime::ZERO, "pkg", "pkg", 10.0)
        });
        r.push_stale_copy(0, SimTime::from_secs(1));
        let copy = r.last().expect("pushed");
        assert_eq!(copy.volts, Some(0.0));
        assert_eq!(copy.amps, None);
    }
}
