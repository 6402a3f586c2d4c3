//! Wire-format header synthesis and parsing.
//!
//! The measurement workloads of §5 use 64-byte Ethernet/IPv4/TCP frames;
//! this module builds and dissects them. The design follows smoltcp's
//! wire-representation idiom: plain structs with explicit emit/parse, one
//! allocation per emitted frame and none per parsed one, every length
//! checked.

use std::fmt;

/// Minimum Ethernet frame size (without FCS) the generators pad to — the
/// 64-byte packets of the paper's benchmarks are 60 bytes + 4 FCS on the
/// wire; we keep 60 bytes of payload-bearing frame.
pub const MIN_FRAME: usize = 60;

/// EtherType for IPv4.
pub(crate) const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for a VLAN tag (802.1Q).
pub(crate) const ETHERTYPE_VLAN: u16 = 0x8100;
/// IPv4 protocol number for TCP.
pub(crate) const IPPROTO_TCP: u8 = 6;

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
    /// Serialize to wire bytes, zero-padded to [`Frame::len`] (at least
    /// the header length). One allocation, every field at its fixed offset.
    pub fn emit(&self) -> Vec<u8> {
        let l2 = if self.vlan.is_some() { 18 } else { 14 };
        // IPv4 header (20 bytes, no options), then 8 transport bytes.
        let mut b = vec![0u8; (l2 + 28).max(self.len)];
        b[0..6].copy_from_slice(&self.eth_dst);
        b[6..12].copy_from_slice(&self.eth_src);
        if let Some(v) = self.vlan {
            b[12..14].copy_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
            b[14..16].copy_from_slice(&(v & 0x0fff).to_be_bytes());
        }
        b[l2 - 2..l2].copy_from_slice(&self.eth_type.to_be_bytes());
        let ip = &mut b[l2..l2 + 28];
        // Version 4, IHL 5; total length covers the headers only. Id,
        // flags and checksum (not modeled) stay zero.
        ip[0] = 0x45;
        ip[2..4].copy_from_slice(&28u16.to_be_bytes());
        ip[8] = self.ttl;
        ip[9] = self.proto;
        ip[12..16].copy_from_slice(&self.ip_src.to_be_bytes());
        ip[16..20].copy_from_slice(&self.ip_dst.to_be_bytes());
        // Transport: source/dest port + 4 zero filler bytes.
        ip[20..22].copy_from_slice(&self.sport.to_be_bytes());
        ip[22..24].copy_from_slice(&self.dport.to_be_bytes());
        b
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

    /// The exact bytes `emit` writes, pinned field by field: each case is
    /// a frame, the hex of its headers and the length it is zero-padded to.
    #[test]
    fn emitted_bytes_are_pinned() {
        let ones = Frame {
            eth_dst: [0xff; 6],
            eth_src: [0xff; 6],
            ip_src: u32::MAX,
            ip_dst: u32::MAX,
            ttl: u8::MAX,
            proto: u8::MAX,
            sport: u16::MAX,
            dport: u16::MAX,
            ..Default::default()
        };
        // Ethernet addresses; IPv4 version/IHL, TOS, total length 28, id,
        // flags; then TTL, protocol, checksum, addresses; ports and filler.
        let macs = "020000000001 020000000002";
        let ip = "45 00 001c 0000 0000";
        let rest = "40 06 0000 0a000001 0a000002 3039 0050 00000000";
        let cases: [(Frame, String, usize); 6] = [
            (Frame::default(), format!("{macs} 0800 {ip} {rest}"), 60),
            (
                Frame {
                    vlan: Some(0xf123),
                    ..Default::default()
                },
                format!("{macs} 8100 0123 0800 {ip} {rest}"),
                60,
            ),
            (
                Frame {
                    len: 0,
                    ..Default::default()
                },
                format!("{macs} 0800 {ip} {rest}"),
                42,
            ),
            (
                Frame {
                    vlan: Some(7),
                    len: 0,
                    ..Default::default()
                },
                format!("{macs} 8100 0007 0800 {ip} {rest}"),
                46,
            ),
            (
                Frame {
                    len: 128,
                    ..Default::default()
                },
                format!("{macs} 0800 {ip} {rest}"),
                128,
            ),
            (
                ones,
                format!("ffffffffffff ffffffffffff 0800 {ip} ff ff 0000 ffffffff ffffffff ffff ffff 00000000"),
                60,
            ),
        ];
        for (frame, headers, len) in cases {
            let mut want = headers.replace(' ', "");
            want += &"00".repeat(len - want.len() / 2);
            let got: String = frame.emit().iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, want, "{frame:?}");
        }
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
        let mut b = Frame::default().emit();
        b[12] = 0x86; // 0x86dd = IPv6
        b[13] = 0xdd;
        assert_eq!(Frame::parse(&b), Err(ParseError::NotIpv4));
        // EtherType says IPv4, the header's version nibble says 6.
        let mut b = Frame::default().emit();
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
