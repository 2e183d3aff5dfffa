//! Out-of-band access: the BMC and the IPMB protocol.
//!
//! "The second is the 'out-of-band' method which starts with the same
//! capabilities in the coprocessors, but sends the information to the Xeon
//! Phi's System Management Controller (SMC). The SMC can then respond to
//! queries from the platform's Baseboard Management Controller (BMC) using
//! the intelligent platform management bus (IPMB) protocol to pass the
//! information upstream to the user." (§II-D)
//!
//! [`IpmbFrame`] implements the IPMB framing (slave addresses, netFn/LUN,
//! sequence number, and both 2's-complement checksums); [`Bmc`] issues a
//! Get-Power request over the (slow, 100 kHz I²C) bus. The defining
//! property of this path: it touches neither the host OS nor the card's
//! cores, so it costs the application nothing — at the price of high
//! latency and BMC-mediated access.

use crate::card::PhiCard;
use crate::smc::{Smc, SmcReading};
use simkit::{SimDuration, SimTime};
use std::fmt;

/// IPMB slave address of the card's SMC.
pub const SMC_ADDR: u8 = 0x30;
/// IPMB slave address of the platform BMC.
pub const BMC_ADDR: u8 = 0x20;
/// OEM netFn used for the power query.
pub const NETFN_OEM_REQ: u8 = 0x2E;
/// Command: get card power.
pub const CMD_GET_POWER: u8 = 0x50;

/// IPMB framing/validation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IpmbError {
    /// Frame shorter than the fixed header + checksums.
    Truncated,
    /// Header checksum mismatch.
    BadHeaderChecksum,
    /// Payload checksum mismatch.
    BadPayloadChecksum,
    /// Response netFn/cmd does not match the request.
    UnexpectedReply,
}

impl fmt::Display for IpmbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpmbError::Truncated => write!(f, "truncated IPMB frame"),
            IpmbError::BadHeaderChecksum => write!(f, "IPMB header checksum mismatch"),
            IpmbError::BadPayloadChecksum => write!(f, "IPMB payload checksum mismatch"),
            IpmbError::UnexpectedReply => write!(f, "unexpected IPMB reply"),
        }
    }
}

impl std::error::Error for IpmbError {}

/// A decoded IPMB frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IpmbFrame {
    /// Responder slave address.
    pub rs_addr: u8,
    /// Network function and LUN (netFn << 2 | lun).
    pub netfn_lun: u8,
    /// Requester slave address.
    pub rq_addr: u8,
    /// Sequence number and requester LUN (seq << 2 | lun).
    pub seq_lun: u8,
    /// Command byte.
    pub cmd: u8,
    /// Command data.
    pub data: Vec<u8>,
}

fn checksum2(bytes: &[u8]) -> u8 {
    // 2's complement checksum: sum of all bytes plus checksum == 0 mod 256.
    let sum: u8 = bytes.iter().fold(0u8, |a, &b| a.wrapping_add(b));
    sum.wrapping_neg()
}

impl IpmbFrame {
    /// Build a request frame.
    pub fn request(netfn: u8, cmd: u8, seq: u8, data: Vec<u8>) -> Self {
        IpmbFrame {
            rs_addr: SMC_ADDR,
            netfn_lun: netfn << 2,
            rq_addr: BMC_ADDR,
            seq_lun: seq << 2,
            cmd,
            data,
        }
    }

    /// Build the matching response frame (netFn | 1, addresses swapped).
    pub fn response_to(&self, data: Vec<u8>) -> Self {
        IpmbFrame {
            rs_addr: self.rq_addr,
            netfn_lun: ((self.netfn_lun >> 2) | 1) << 2,
            rq_addr: self.rs_addr,
            seq_lun: self.seq_lun,
            cmd: self.cmd,
            data,
        }
    }

    /// Serialize with both checksums.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.rs_addr, self.netfn_lun];
        out.push(checksum2(&out));
        let body_start = out.len();
        out.push(self.rq_addr);
        out.push(self.seq_lun);
        out.push(self.cmd);
        out.extend_from_slice(&self.data);
        out.push(checksum2(&out[body_start..]));
        out
    }

    /// Parse and verify a frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, IpmbError> {
        if bytes.len() < 7 {
            return Err(IpmbError::Truncated);
        }
        if checksum2(&bytes[..2]) != bytes[2] {
            return Err(IpmbError::BadHeaderChecksum);
        }
        let body = &bytes[3..bytes.len() - 1];
        if checksum2(body) != bytes[bytes.len() - 1] {
            return Err(IpmbError::BadPayloadChecksum);
        }
        Ok(IpmbFrame {
            rs_addr: bytes[0],
            netfn_lun: bytes[1],
            rq_addr: bytes[3],
            seq_lun: bytes[4],
            cmd: bytes[5],
            data: bytes[6..bytes.len() - 1].to_vec(),
        })
    }

    /// Bus transfer time at IPMB's 100 kHz I²C (9 bit-times per byte).
    pub fn transfer_time(&self) -> SimDuration {
        let bits = (self.encode().len() as u64) * 9;
        SimDuration::from_micros(bits * 10) // 10 us per bit at 100 kHz
    }
}

/// The platform BMC.
pub struct Bmc {
    seq: u8,
}

impl Default for Bmc {
    fn default() -> Self {
        Self::new()
    }
}

impl Bmc {
    /// A fresh BMC session.
    pub fn new() -> Self {
        Bmc { seq: 0 }
    }

    /// Query the card's power out of band at time `t`.
    ///
    /// Returns the SMC reading and the completion time (request transfer +
    /// SMC firmware turnaround + response transfer). No host or card CPU
    /// time is consumed — the caller charges nothing to the application.
    pub fn query_power(
        &mut self,
        card: &PhiCard,
        smc: &Smc,
        t: SimTime,
    ) -> Result<(SmcReading, SimTime), IpmbError> {
        self.seq = self.seq.wrapping_add(1) & 0x3F;
        let req = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, self.seq, vec![]);
        // Encode/decode round trip — the wire format is exercised for real.
        let wire = req.encode();
        let arrived = IpmbFrame::decode(&wire)?;
        let t_req_done = t + req.transfer_time();
        // SMC firmware turnaround.
        let t_collected = t_req_done + SimDuration::from_millis(2);
        let reading = smc.read(card, t_collected);
        let resp = arrived.response_to(reading.total_power_uw.to_le_bytes().to_vec());
        let resp_wire = resp.encode();
        let decoded = IpmbFrame::decode(&resp_wire)?;
        if decoded.cmd != CMD_GET_POWER || decoded.netfn_lun != (NETFN_OEM_REQ | 1) << 2 {
            return Err(IpmbError::UnexpectedReply);
        }
        let done = t_collected + resp.transfer_time();
        Ok((reading, done))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::PhiSpec;
    use hpc_workloads::Noop;
    use powermodel::DemandTrace;
    use simkit::NoiseStream;

    #[test]
    fn encode_decode_roundtrip() {
        let f = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 5, vec![1, 2, 3]);
        let wire = f.encode();
        assert_eq!(IpmbFrame::decode(&wire).unwrap(), f);
    }

    #[test]
    fn corrupt_frames_rejected() {
        let f = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 1, vec![9]);
        let mut wire = f.encode();
        wire[1] ^= 0xFF;
        assert_eq!(
            IpmbFrame::decode(&wire).err(),
            Some(IpmbError::BadHeaderChecksum)
        );
        let mut wire2 = f.encode();
        let last = wire2.len() - 2;
        wire2[last] ^= 0x01;
        assert_eq!(
            IpmbFrame::decode(&wire2).err(),
            Some(IpmbError::BadPayloadChecksum)
        );
        assert_eq!(
            IpmbFrame::decode(&[1, 2, 3]).err(),
            Some(IpmbError::Truncated)
        );
    }

    #[test]
    fn response_swaps_addresses_and_sets_odd_netfn() {
        let req = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 2, vec![]);
        let resp = req.response_to(vec![0xAA]);
        assert_eq!(resp.rs_addr, BMC_ADDR);
        assert_eq!(resp.rq_addr, SMC_ADDR);
        assert_eq!(resp.netfn_lun >> 2, NETFN_OEM_REQ | 1);
        assert_eq!(resp.seq_lun, req.seq_lun);
    }

    #[test]
    fn oob_query_returns_power_slowly_but_freely() {
        let card = PhiCard::new(
            PhiSpec::default(),
            &Noop::figure7().profile(),
            DemandTrace::zero(),
            SimTime::from_secs(200),
        );
        let smc = Smc::new(NoiseStream::new(2));
        let mut bmc = Bmc::new();
        let t = SimTime::from_secs(20);
        let (r, done) = bmc.query_power(&card, &smc, t).unwrap();
        let w = r.total_power_uw as f64 / 1e6;
        assert!((105.0..120.0).contains(&w), "power {w}");
        // Slow: milliseconds over the management bus…
        let elapsed = done - t;
        assert!(elapsed > SimDuration::from_millis(2), "elapsed {elapsed:?}");
        // …but slower than in-band? No — cheaper than in-band *and* slower
        // than a local MSR; the key property is it is not charged to the app.
        assert!(
            elapsed < SimDuration::from_millis(10),
            "elapsed {elapsed:?}"
        );
    }

    #[test]
    fn sequence_numbers_advance() {
        let card = PhiCard::new(
            PhiSpec::default(),
            &Noop::figure7().profile(),
            DemandTrace::zero(),
            SimTime::from_secs(200),
        );
        let smc = Smc::new(NoiseStream::new(2));
        let mut bmc = Bmc::new();
        let t = SimTime::from_secs(20);
        bmc.query_power(&card, &smc, t).unwrap();
        let s1 = bmc.seq;
        bmc.query_power(&card, &smc, t + SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(bmc.seq, s1 + 1);
    }

    #[test]
    fn transfer_time_scales_with_frame_size() {
        let small = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 1, vec![]);
        let big = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 1, vec![0; 64]);
        assert!(big.transfer_time() > small.transfer_time());
    }

    // --- boundary sweep ----------------------------------------------------
    //
    // The IPMB frame carries no length byte — length is whatever the bus
    // delivered — so every offset below is computed from the slice length.
    // These tests pin the exact boundaries: 7 bytes is the smallest frame
    // (3-byte header + rq/seq/cmd + data checksum around empty data), and
    // every shorter prefix must be Truncated, never a panic or mis-slice.

    #[test]
    fn minimum_frame_is_exactly_seven_bytes() {
        let f = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 3, vec![]);
        let wire = f.encode();
        assert_eq!(wire.len(), 7);
        assert_eq!(IpmbFrame::decode(&wire).unwrap(), f);
        // The data checksum sits at the last byte, covering only
        // rq_addr/seq_lun/cmd when the data section is empty.
        assert_eq!(wire[6], checksum2(&wire[3..6]));
    }

    #[test]
    fn every_short_prefix_is_truncated() {
        let f = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 4, vec![7, 8, 9]);
        let wire = f.encode();
        for n in 0..7 {
            assert_eq!(
                IpmbFrame::decode(&wire[..n]).err(),
                Some(IpmbError::Truncated),
                "prefix of {n} bytes"
            );
        }
    }

    #[test]
    fn truncation_at_the_data_checksum_boundary_fails_the_checksum() {
        // Dropping trailing bytes of a long-enough frame shifts the data
        // checksum onto a data byte: the frame stays structurally valid
        // (len >= 7) but the checksum verdict must catch it at every cut.
        let f = IpmbFrame::request(NETFN_OEM_REQ, CMD_GET_POWER, 5, vec![1, 2, 3, 4]);
        let wire = f.encode();
        for n in 7..wire.len() {
            assert_eq!(
                IpmbFrame::decode(&wire[..n]).err(),
                Some(IpmbError::BadPayloadChecksum),
                "cut to {n} of {} bytes",
                wire.len()
            );
        }
    }
}
