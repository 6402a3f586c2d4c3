//! Binding between catalog attributes and wire header fields.
//!
//! Programs speak in attribute names (`ip_dst`, `tcp_dst`, …); frames
//! carry bytes. A [`Binding`] connects the two: it knows, for each
//! matchable attribute of a catalog, how to read the value from a parsed
//! [`Frame`] and how to write it when synthesizing traffic. The standard
//! names used by the paper's figures are built in; unknown fields can be
//! registered as sideband values (e.g. `in_port`).

use crate::headers::Frame;
use mapro_core::{AttrId, AttrKind, Catalog, Packet};
use std::collections::HashMap;

/// The wire location a field name maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldLoc {
    /// Ethernet destination MAC (low 48 bits of the value).
    EthDst,
    /// Ethernet source MAC.
    EthSrc,
    /// EtherType.
    EthType,
    /// 802.1Q VLAN id (absent tag reads as 0).
    Vlan,
    /// IPv4 source address.
    IpSrc,
    /// IPv4 destination address.
    IpDst,
    /// IPv4 TTL.
    Ttl,
    /// IPv4 protocol.
    IpProto,
    /// Transport source port.
    TpSrc,
    /// Transport destination port.
    TpDst,
    /// Not on the wire: supplied out-of-band per packet (e.g. `in_port`).
    Sideband,
}

/// Resolves attribute values from frames.
///
/// Guarantee: [`Binding::to_packet`] allocates nothing beyond the packet
/// itself (which is inline up to `Packet`'s capacity), does no search and,
/// while the sideband map is empty, no hash probe: the per-attribute
/// locations are resolved once, in [`Binding::standard`].
#[derive(Debug, Clone)]
pub struct Binding {
    /// Location by attribute index; attributes the binding does not cover
    /// (actions, anything past the catalog) are [`FieldLoc::Sideband`].
    locs: Vec<FieldLoc>,
    /// The attributes read from the frame, with where.
    wire: Vec<(AttrId, FieldLoc)>,
    /// The matchable attributes supplied out-of-band.
    sideband: Vec<AttrId>,
}

impl Binding {
    /// Build a binding for every matchable attribute of `catalog`, using
    /// the conventional names of the paper's figures; unrecognized fields
    /// (and all metadata) become [`FieldLoc::Sideband`].
    pub fn standard(catalog: &Catalog) -> Binding {
        let mut b = Binding {
            locs: vec![FieldLoc::Sideband; catalog.len()],
            wire: Vec::new(),
            sideband: Vec::new(),
        };
        for (id, a) in catalog.iter() {
            if !a.kind.is_matchable() {
                continue;
            }
            let loc = match a.name.as_str() {
                _ if matches!(a.kind, AttrKind::Meta) => FieldLoc::Sideband,
                "eth_dst" | "dl_dst" => FieldLoc::EthDst,
                "eth_src" | "dl_src" => FieldLoc::EthSrc,
                "eth_type" | "dl_type" => FieldLoc::EthType,
                "vlan" | "vlan_vid" | "dl_vlan" => FieldLoc::Vlan,
                "ip_src" | "nw_src" => FieldLoc::IpSrc,
                "ip_dst" | "nw_dst" => FieldLoc::IpDst,
                "ttl" | "nw_ttl" => FieldLoc::Ttl,
                "ip_proto" | "nw_proto" => FieldLoc::IpProto,
                "tcp_src" | "tp_src" | "udp_src" | "sport" => FieldLoc::TpSrc,
                "tcp_dst" | "tp_dst" | "udp_dst" | "dport" => FieldLoc::TpDst,
                _ => FieldLoc::Sideband,
            };
            b.locs[id.index()] = loc;
            match loc {
                FieldLoc::Sideband => b.sideband.push(id),
                _ => b.wire.push((id, loc)),
            }
        }
        b
    }

    fn loc(&self, attr: AttrId) -> FieldLoc {
        let loc = self.locs.get(attr.index()).copied();
        loc.unwrap_or(FieldLoc::Sideband)
    }

    /// Read an attribute's value from a frame (+ sideband map). One
    /// attribute at a time: the reference [`Binding::to_packet`] is tested
    /// against, not the path a frame takes.
    pub fn read(&self, attr: AttrId, frame: &Frame, sideband: &HashMap<AttrId, u64>) -> u64 {
        match self.loc(attr) {
            FieldLoc::Sideband => sideband.get(&attr).copied().unwrap_or(0),
            loc => wire_value(loc, frame),
        }
    }

    /// Write an attribute's value into a frame under synthesis. Sideband
    /// values go into the map instead.
    pub fn write(
        &self,
        attr: AttrId,
        value: u64,
        frame: &mut Frame,
        sideband: &mut HashMap<AttrId, u64>,
    ) {
        match self.loc(attr) {
            FieldLoc::EthDst => frame.eth_dst = u64_to_mac(value),
            FieldLoc::EthSrc => frame.eth_src = u64_to_mac(value),
            FieldLoc::EthType => frame.eth_type = value as u16,
            FieldLoc::Vlan => frame.vlan = Some(value as u16 & 0x0fff),
            FieldLoc::IpSrc => frame.ip_src = value as u32,
            FieldLoc::IpDst => frame.ip_dst = value as u32,
            FieldLoc::Ttl => frame.ttl = value as u8,
            FieldLoc::IpProto => frame.proto = value as u8,
            FieldLoc::TpSrc => frame.sport = value as u16,
            FieldLoc::TpDst => frame.dport = value as u16,
            FieldLoc::Sideband => {
                sideband.insert(attr, value);
            }
        }
    }

    /// Convert a frame into an abstract [`Packet`] over `catalog`.
    pub fn to_packet(
        &self,
        catalog: &Catalog,
        frame: &Frame,
        sideband: &HashMap<AttrId, u64>,
    ) -> Packet {
        let mut p = Packet::zero(catalog);
        for &(attr, loc) in &self.wire {
            p.set(attr, wire_value(loc, frame));
        }
        // An unset sideband value reads 0, which `zero` already wrote.
        if !sideband.is_empty() {
            for attr in &self.sideband {
                if let Some(&v) = sideband.get(attr) {
                    p.set(*attr, v);
                }
            }
        }
        p
    }
}

/// The value `frame` carries at a wire location (0 for `Sideband`, which
/// is not one).
#[inline]
fn wire_value(loc: FieldLoc, frame: &Frame) -> u64 {
    match loc {
        FieldLoc::EthDst => mac_to_u64(&frame.eth_dst),
        FieldLoc::EthSrc => mac_to_u64(&frame.eth_src),
        FieldLoc::EthType => frame.eth_type as u64,
        FieldLoc::Vlan => frame.vlan.unwrap_or(0) as u64,
        FieldLoc::IpSrc => frame.ip_src as u64,
        FieldLoc::IpDst => frame.ip_dst as u64,
        FieldLoc::Ttl => frame.ttl as u64,
        FieldLoc::IpProto => frame.proto as u64,
        FieldLoc::TpSrc => frame.sport as u64,
        FieldLoc::TpDst => frame.dport as u64,
        FieldLoc::Sideband => 0,
    }
}

/// Pack a MAC address into the low 48 bits of a u64.
pub fn mac_to_u64(mac: &[u8; 6]) -> u64 {
    mac.iter().fold(0u64, |acc, &b| (acc << 8) | b as u64)
}

/// Unpack the low 48 bits of a u64 into a MAC address.
pub fn u64_to_mac(v: u64) -> [u8; 6] {
    let mut mac = [0u8; 6];
    for (i, b) in mac.iter_mut().enumerate() {
        *b = ((v >> (40 - 8 * i)) & 0xff) as u8;
    }
    mac
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Catalog, Vec<AttrId>) {
        let mut c = Catalog::new();
        let a = c.field("ip_src", 32);
        let b = c.field("ip_dst", 32);
        let d = c.field("tcp_dst", 16);
        let e = c.field("in_port", 32);
        let m = c.meta("meta", 32);
        (c, vec![a, b, d, e, m])
    }

    #[test]
    fn standard_binding_reads_wire_fields() {
        let (c, ids) = catalog();
        let bind = Binding::standard(&c);
        let f = Frame {
            ip_src: 0x0102_0304,
            ip_dst: 0x0a0b_0c0d,
            dport: 8080,
            ..Default::default()
        };
        let sb = HashMap::new();
        assert_eq!(bind.read(ids[0], &f, &sb), 0x0102_0304);
        assert_eq!(bind.read(ids[1], &f, &sb), 0x0a0b_0c0d);
        assert_eq!(bind.read(ids[2], &f, &sb), 8080);
    }

    #[test]
    fn sideband_fields() {
        let (c, ids) = catalog();
        let bind = Binding::standard(&c);
        let f = Frame::default();
        let mut sb = HashMap::new();
        bind.write(ids[3], 7, &mut Frame::default(), &mut sb);
        assert_eq!(bind.read(ids[3], &f, &sb), 7);
        assert_eq!(bind.read(ids[4], &f, &sb), 0); // unset meta
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (c, ids) = catalog();
        let bind = Binding::standard(&c);
        let mut f = Frame::default();
        let mut sb = HashMap::new();
        bind.write(ids[1], 0xc000_0201, &mut f, &mut sb);
        bind.write(ids[2], 443, &mut f, &mut sb);
        assert_eq!(f.ip_dst, 0xc000_0201);
        assert_eq!(f.dport, 443);
        assert_eq!(bind.read(ids[1], &f, &sb), 0xc000_0201);
    }

    #[test]
    fn to_packet_populates_fields() {
        let (c, ids) = catalog();
        let bind = Binding::standard(&c);
        let f = Frame {
            ip_dst: 99,
            ..Default::default()
        };
        let p = bind.to_packet(&c, &f, &HashMap::new());
        assert_eq!(p.get(ids[1]), 99);
    }

    #[test]
    fn mac_helpers_roundtrip() {
        let mac = [0x02, 0x42, 0xac, 0x11, 0x00, 0x05];
        assert_eq!(u64_to_mac(mac_to_u64(&mac)), mac);
    }
}
