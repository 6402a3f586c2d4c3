//! Wire-format header synthesis and parsing.
//!
//! The measurement workloads of §5 use 64-byte Ethernet/IPv4/TCP frames;
//! this module builds and dissects them. The design follows smoltcp's
//! wire-representation idiom: plain structs with explicit emit/parse, no
//! allocation surprises, every length checked.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Minimum Ethernet frame size (without FCS) the generators pad to — the
/// 64-byte packets of the paper's benchmarks are 60 bytes + 4 FCS on the
/// wire; we keep 60 bytes of payload-bearing frame.
pub const MIN_FRAME: usize = 60;

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for a VLAN tag (802.1Q).
pub const ETHERTYPE_VLAN: u16 = 0x8100;
/// IPv4 protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IPv4 protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// A parsed (or to-be-emitted) frame: Ethernet, optional 802.1Q tag,
/// IPv4, and TCP/UDP ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination MAC address.
    pub eth_dst: [u8; 6],
    /// Source MAC address.
    pub eth_src: [u8; 6],
    /// Optional VLAN id (12 bits).
    pub vlan: Option<u16>,
    /// EtherType of the payload (after any VLAN tag).
    pub eth_type: u16,
    /// IPv4 source address.
    pub ip_src: u32,
    /// IPv4 destination address.
    pub ip_dst: u32,
    /// IPv4 TTL.
    pub ttl: u8,
    /// IPv4 protocol.
    pub proto: u8,
    /// Transport source port.
    pub sport: u16,
    /// Transport destination port.
    pub dport: u16,
    /// Total frame length in bytes (padded).
    pub len: usize,
}

impl Default for Frame {
    fn default() -> Self {
        Frame {
            eth_dst: [0x02, 0, 0, 0, 0, 0x01],
            eth_src: [0x02, 0, 0, 0, 0, 0x02],
            vlan: None,
            eth_type: ETHERTYPE_IPV4,
            ip_src: 0x0a00_0001,
            ip_dst: 0x0a00_0002,
            ttl: 64,
            proto: IPPROTO_TCP,
            sport: 12345,
            dport: 80,
            len: MIN_FRAME,
        }
    }
}

/// Errors from [`Frame::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Frame shorter than the headers it claims to carry.
    Truncated,
    /// EtherType is neither IPv4 nor VLAN-then-IPv4, or the header under
    /// it is not version 4.
    NotIpv4,
    /// IPv4 header length field below 5 words.
    BadIhl,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Truncated => write!(f, "frame truncated"),
            ParseError::NotIpv4 => write!(f, "not an IPv4 frame"),
            ParseError::BadIhl => write!(f, "bad IPv4 IHL"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Frame {
    /// Serialize to wire bytes, padding to [`Frame::len`] (at least the
    /// header length).
    pub fn emit(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(self.len.max(MIN_FRAME));
        b.put_slice(&self.eth_dst);
        b.put_slice(&self.eth_src);
        if let Some(v) = self.vlan {
            b.put_u16(ETHERTYPE_VLAN);
            b.put_u16(v & 0x0fff);
        }
        b.put_u16(self.eth_type);
        // IPv4 header (20 bytes, no options).
        let ip_start = b.len();
        b.put_u8(0x45);
        b.put_u8(0);
        let transport_len = 20 + 8; // we emit 8 transport bytes (ports + misc)
        b.put_u16(transport_len as u16); // total length (headers only)
        b.put_u16(0); // id
        b.put_u16(0); // flags/frag
        b.put_u8(self.ttl);
        b.put_u8(self.proto);
        b.put_u16(0); // checksum (not modeled)
        b.put_u32(self.ip_src);
        b.put_u32(self.ip_dst);
        let _ = ip_start;
        // Transport: source/dest port + 4 filler bytes (seq lo, etc.).
        b.put_u16(self.sport);
        b.put_u16(self.dport);
        b.put_u32(0);
        while b.len() < self.len {
            b.put_u8(0);
        }
        b.freeze()
    }

    /// Parse wire bytes.
    pub fn parse(data: &[u8]) -> Result<Frame, ParseError> {
        if data.len() < 14 {
            return Err(ParseError::Truncated);
        }
        let mut eth_dst = [0u8; 6];
        let mut eth_src = [0u8; 6];
        eth_dst.copy_from_slice(&data[0..6]);
        eth_src.copy_from_slice(&data[6..12]);
        let mut off = 12;
        let mut vlan = None;
        let mut eth_type = u16::from_be_bytes([data[off], data[off + 1]]);
        off += 2;
        if eth_type == ETHERTYPE_VLAN {
            if data.len() < off + 4 {
                return Err(ParseError::Truncated);
            }
            vlan = Some(u16::from_be_bytes([data[off], data[off + 1]]) & 0x0fff);
            eth_type = u16::from_be_bytes([data[off + 2], data[off + 3]]);
            off += 4;
        }
        if eth_type != ETHERTYPE_IPV4 {
            return Err(ParseError::NotIpv4);
        }
        if data.len() < off + 20 {
            return Err(ParseError::Truncated);
        }
        // Version and IHL share a byte: anything but version 4 under this
        // EtherType is not the header the offsets below assume.
        if data[off] >> 4 != 4 {
            return Err(ParseError::NotIpv4);
        }
        let ihl = (data[off] & 0x0f) as usize;
        if ihl < 5 {
            return Err(ParseError::BadIhl);
        }
        let ttl = data[off + 8];
        let proto = data[off + 9];
        let ip_src = u32::from_be_bytes([
            data[off + 12],
            data[off + 13],
            data[off + 14],
            data[off + 15],
        ]);
        let ip_dst = u32::from_be_bytes([
            data[off + 16],
            data[off + 17],
            data[off + 18],
            data[off + 19],
        ]);
        let tp = off + ihl * 4;
        if data.len() < tp + 4 {
            return Err(ParseError::Truncated);
        }
        let sport = u16::from_be_bytes([data[tp], data[tp + 1]]);
        let dport = u16::from_be_bytes([data[tp + 2], data[tp + 3]]);
        Ok(Frame {
            eth_dst,
            eth_src,
            vlan,
            eth_type,
            ip_src,
            ip_dst,
            ttl,
            proto,
            sport,
            dport,
            len: data.len(),
        })
    }
}

/// Render an IPv4 address for diagnostics.
pub fn ipv4_to_string(ip: u32) -> String {
    format!(
        "{}.{}.{}.{}",
        (ip >> 24) & 0xff,
        (ip >> 16) & 0xff,
        (ip >> 8) & 0xff,
        ip & 0xff
    )
}

/// Parse a dotted-quad IPv4 address (panics on malformed input; intended
/// for literals in workloads and tests).
pub fn ipv4(s: &str) -> u32 {
    let mut out = 0u32;
    let mut parts = 0;
    for p in s.split('.') {
        let v: u32 = p.parse().expect("malformed IPv4 literal");
        assert!(v < 256, "malformed IPv4 literal");
        out = (out << 8) | v;
        parts += 1;
    }
    assert_eq!(parts, 4, "malformed IPv4 literal");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_parse_roundtrip() {
        let f = Frame {
            ip_src: ipv4("192.0.2.7"),
            ip_dst: ipv4("192.0.2.1"),
            dport: 443,
            sport: 5555,
            ttl: 17,
            ..Default::default()
        };
        let bytes = f.emit();
        assert_eq!(bytes.len(), MIN_FRAME);
        let g = Frame::parse(&bytes).unwrap();
        assert_eq!(g.ip_src, f.ip_src);
        assert_eq!(g.ip_dst, f.ip_dst);
        assert_eq!(g.dport, 443);
        assert_eq!(g.sport, 5555);
        assert_eq!(g.ttl, 17);
        assert_eq!(g.proto, IPPROTO_TCP);
        assert_eq!(g.vlan, None);
    }

    #[test]
    fn vlan_roundtrip() {
        let f = Frame {
            vlan: Some(42),
            ..Default::default()
        };
        let bytes = f.emit();
        let g = Frame::parse(&bytes).unwrap();
        assert_eq!(g.vlan, Some(42));
        assert_eq!(g.eth_type, ETHERTYPE_IPV4);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Frame::parse(&[0u8; 10]), Err(ParseError::Truncated));
        let f = Frame::default();
        let b = f.emit();
        assert_eq!(Frame::parse(&b[..20]), Err(ParseError::Truncated));
    }

    #[test]
    fn non_ipv4_rejected() {
        let mut b = Frame::default().emit().to_vec();
        b[12] = 0x86; // 0x86dd = IPv6
        b[13] = 0xdd;
        assert_eq!(Frame::parse(&b), Err(ParseError::NotIpv4));
        // EtherType says IPv4, the header's version nibble says 6.
        let mut b = Frame::default().emit().to_vec();
        b[14] = 0x65;
        assert_eq!(Frame::parse(&b), Err(ParseError::NotIpv4));
    }

    #[test]
    fn ipv4_literals() {
        assert_eq!(ipv4("192.0.2.1"), 0xc000_0201);
        assert_eq!(ipv4_to_string(0xc000_0201), "192.0.2.1");
        assert_eq!(ipv4("0.0.0.0"), 0);
        assert_eq!(ipv4("255.255.255.255"), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "malformed IPv4")]
    fn bad_literal_panics() {
        ipv4("192.0.2");
    }

    #[test]
    fn padding_respected() {
        let f = Frame {
            len: 128,
            ..Default::default()
        };
        assert_eq!(f.emit().len(), 128);
    }
}
