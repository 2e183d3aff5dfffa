//! Blue Gene/Q physical topology and location codes.
//!
//! "A rack of a BG/Q system consists of two midplanes, eight link cards, and
//! two service cards. A midplane contains 16 node boards. Each node board
//! holds 32 compute cards, for a total of 1,024 nodes per rack. … BG/Q thus
//! has 16,384 cores per rack." (§II-A)
//!
//! Locations follow the Blue Gene convention `Rxx-Mx-Nxx[-Jxx]`: rack,
//! midplane (0–1), node board (00–15), compute card (00–31).

use std::fmt;
use std::str::FromStr;

/// Compute cards per node board.
pub const CARDS_PER_BOARD: usize = 32;
/// Node boards per midplane.
pub const BOARDS_PER_MIDPLANE: usize = 16;
/// Midplanes per rack.
pub const MIDPLANES_PER_RACK: usize = 2;
/// Compute nodes per rack (1,024).
pub const NODES_PER_RACK: usize = CARDS_PER_BOARD * BOARDS_PER_MIDPLANE * MIDPLANES_PER_RACK;
/// Application cores per node (one more runs system software, one is spare).
pub const APP_CORES_PER_NODE: usize = 16;
/// Cores per rack as the paper counts them (16,384).
pub const CORES_PER_RACK: usize = NODES_PER_RACK * APP_CORES_PER_NODE;

/// A node-board location `Rxx-Mx-Nxx` (the granularity of EMON data), or a
/// compute-card location when `card` is set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Rack index.
    pub rack: u16,
    /// Midplane within the rack (0 or 1).
    pub midplane: u8,
    /// Node board within the midplane (0–15).
    pub board: u8,
    /// Compute card within the board (0–31), if addressing a single node.
    pub card: Option<u8>,
}

impl Location {
    /// A node-board location.
    pub fn board(rack: u16, midplane: u8, board: u8) -> Self {
        assert!(
            (midplane as usize) < MIDPLANES_PER_RACK,
            "midplane out of range"
        );
        assert!((board as usize) < BOARDS_PER_MIDPLANE, "board out of range");
        Location {
            rack,
            midplane,
            board,
            card: None,
        }
    }

    /// A compute-card location.
    pub fn compute_card(rack: u16, midplane: u8, board: u8, card: u8) -> Self {
        assert!((card as usize) < CARDS_PER_BOARD, "card out of range");
        Location {
            card: Some(card),
            ..Location::board(rack, midplane, board)
        }
    }

    /// Flat index of the node board within the whole machine.
    pub fn board_index(&self) -> usize {
        (self.rack as usize * MIDPLANES_PER_RACK + self.midplane as usize) * BOARDS_PER_MIDPLANE
            + self.board as usize
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{:02}-M{}-N{:02}", self.rack, self.midplane, self.board)?;
        if let Some(c) = self.card {
            write!(f, "-J{c:02}")?;
        }
        Ok(())
    }
}

/// Errors from parsing a location code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocationParseError(String);

impl fmt::Display for LocationParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid location code: {}", self.0)
    }
}

impl std::error::Error for LocationParseError {}

impl FromStr for Location {
    type Err = LocationParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || LocationParseError(s.to_owned());
        let mut parts = s.split('-');
        let rack = parts
            .next()
            .and_then(|p| p.strip_prefix('R'))
            .and_then(|p| p.parse::<u16>().ok())
            .ok_or_else(err)?;
        let midplane = parts
            .next()
            .and_then(|p| p.strip_prefix('M'))
            .and_then(|p| p.parse::<u8>().ok())
            .filter(|&m| (m as usize) < MIDPLANES_PER_RACK)
            .ok_or_else(err)?;
        let board = parts
            .next()
            .and_then(|p| p.strip_prefix('N'))
            .and_then(|p| p.parse::<u8>().ok())
            .filter(|&b| (b as usize) < BOARDS_PER_MIDPLANE)
            .ok_or_else(err)?;
        let card = match parts.next() {
            None => None,
            Some(p) => Some(
                p.strip_prefix('J')
                    .and_then(|p| p.parse::<u8>().ok())
                    .filter(|&c| (c as usize) < CARDS_PER_BOARD)
                    .ok_or_else(err)?,
            ),
        };
        if parts.next().is_some() {
            return Err(err());
        }
        Ok(Location {
            rack,
            midplane,
            board,
            card,
        })
    }
}

/// Machine-shape helper: iteration over a machine of `racks` racks.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    /// Number of racks (Mira: 48).
    pub racks: u16,
}

impl Topology {
    /// Mira's shape.
    pub fn mira() -> Self {
        Topology { racks: 48 }
    }

    /// Total compute nodes.
    pub fn nodes(&self) -> usize {
        self.racks as usize * NODES_PER_RACK
    }

    /// Total node boards (the EMON granularity).
    pub fn boards(&self) -> usize {
        self.racks as usize * MIDPLANES_PER_RACK * BOARDS_PER_MIDPLANE
    }

    /// Iterate every node-board location.
    pub fn board_locations(&self) -> impl Iterator<Item = Location> + '_ {
        let racks = self.racks;
        (0..racks).flat_map(|r| {
            (0..MIDPLANES_PER_RACK as u8).flat_map(move |m| {
                (0..BOARDS_PER_MIDPLANE as u8).map(move |n| Location::board(r, m, n))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(NODES_PER_RACK, 1_024);
        assert_eq!(CORES_PER_RACK, 16_384);
        assert_eq!(Topology::mira().nodes(), 49_152); // the full-Mira scale of §III
    }

    #[test]
    fn location_display_roundtrip() {
        let l = Location::compute_card(0, 1, 4, 12);
        assert_eq!(l.to_string(), "R00-M1-N04-J12");
        assert_eq!("R00-M1-N04-J12".parse::<Location>().unwrap(), l);
        let b = Location::board(7, 0, 15);
        assert_eq!(b.to_string(), "R07-M0-N15");
        assert_eq!("R07-M0-N15".parse::<Location>().unwrap(), b);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "R00",
            "R00-M2-N00",     // midplane out of range
            "R00-M0-N16",     // board out of range
            "R00-M0-N00-J32", // card out of range
            "R00-M0-N00-J01-X",
            "X00-M0-N00",
        ] {
            assert!(bad.parse::<Location>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn board_index_is_dense_and_unique() {
        let topo = Topology { racks: 2 };
        let idxs: Vec<usize> = topo.board_locations().map(|l| l.board_index()).collect();
        assert_eq!(idxs.len(), topo.boards());
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..topo.boards()).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "card out of range")]
    fn card_range_enforced() {
        Location::compute_card(0, 0, 0, 32);
    }
}
