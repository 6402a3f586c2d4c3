//! Attributes of a match-action program.
//!
//! Following §3 of the paper, *header fields and actions are collectively
//! called attributes*. A match-action table is a relation over a set of
//! attributes; an action attribute's "value" in a row is the action's
//! parameter (e.g. `out = vm1`). This uniform treatment is what allows
//! candidate keys to contain actions (the `(out)` key of Fig. 1a) and
//! functional dependencies to relate actions to fields.

use std::collections::HashMap;
use std::fmt;

/// Index of an attribute in a [`Catalog`].
///
/// Attribute ids are program-wide: every table of a pipeline draws its match
/// and action columns from the same catalog, so ids can be compared across
/// tables (as decomposition requires).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The attribute's position in its catalog.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// What an action attribute *does* when its row is selected.
///
/// The relational theory of the paper never inspects these semantics — rows
/// are just tuples of opaque values — but the pipeline evaluator needs them
/// to compute a packet's fate, and the decomposition engine needs to know
/// which attributes are `Goto`/`WriteMeta` plumbing it may introduce.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ActionSem {
    /// Forward the packet on the port named by the cell value
    /// (NetKAT `out(r)`).
    Output,
    /// Continue processing at the table named by the cell value
    /// (OpenFlow `goto_table`).
    Goto,
    /// Write the cell value into the given (metadata or header) field
    /// (NetKAT `f ← v`). Used both for explicit metadata tags (Fig. 1c)
    /// and for header rewrites such as `mod_smac` (Fig. 2).
    SetField(AttrId),
    /// An action the evaluator applies as an opaque packet transformation
    /// identified by `(attribute name, cell value)`; it participates in
    /// equivalence checking as part of the externally visible verdict.
    Opaque,
}

/// The kind of an attribute: a matchable field or an action column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AttrKind {
    /// A header field carried by packets on the wire.
    Field,
    /// A metadata (scratch) field: matchable like a header field, but not
    /// part of the externally visible packet, hence excluded from
    /// equivalence verdicts. Introduced by metadata-based joins (§4).
    Meta,
    /// An action column with the given semantics.
    Action(ActionSem),
}

impl AttrKind {
    /// True for `Field` and `Meta` — anything a table may match on.
    #[inline]
    pub fn is_matchable(&self) -> bool {
        matches!(self, AttrKind::Field | AttrKind::Meta)
    }

    /// True for action columns.
    #[inline]
    pub fn is_action(&self) -> bool {
        matches!(self, AttrKind::Action(_))
    }
}

/// A named, typed attribute.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Attribute {
    /// Human-readable name (`ip_dst`, `out`, …). Unique within a catalog.
    pub name: String,
    /// Field / metadata / action.
    pub kind: AttrKind,
    /// Bit width of the value domain for matchable attributes (≤ 64).
    /// For action attributes the width is informational only.
    pub width: u32,
}

/// The program-wide dictionary of attributes.
///
/// A catalog is owned by a [`crate::Pipeline`]; transformations that
/// introduce new attributes (metadata tags, goto columns) extend it.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Catalog {
    attrs: Vec<Attribute>,
    by_name: HashMap<String, AttrId>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an attribute, returning its id.
    ///
    /// # Panics
    /// Panics if an attribute with the same name already exists (attribute
    /// names are the stable identity used by program text and tests) or if
    /// `width > 64`.
    pub fn add(&mut self, name: impl Into<String>, kind: AttrKind, width: u32) -> AttrId {
        let name = name.into();
        assert!(width <= 64, "field width {width} exceeds 64 bits");
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate attribute name {name:?}"
        );
        let id = AttrId(self.attrs.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.attrs.push(Attribute { name, kind, width });
        id
    }

    /// Register a header field.
    pub fn field(&mut self, name: impl Into<String>, width: u32) -> AttrId {
        self.add(name, AttrKind::Field, width)
    }

    /// Register a metadata field.
    pub fn meta(&mut self, name: impl Into<String>, width: u32) -> AttrId {
        self.add(name, AttrKind::Meta, width)
    }

    /// Register an action attribute.
    pub fn action(&mut self, name: impl Into<String>, sem: ActionSem) -> AttrId {
        self.add(name, AttrKind::Action(sem), 0)
    }

    /// Look up an attribute by name.
    pub fn lookup(&self, name: &str) -> Option<AttrId> {
        self.by_name.get(name).copied()
    }

    /// Access an attribute's metadata.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this catalog.
    pub fn attr(&self, id: AttrId) -> &Attribute {
        &self.attrs[id.index()]
    }

    /// The attribute's name.
    pub fn name(&self, id: AttrId) -> &str {
        &self.attr(id).name
    }

    /// The bits a cell of column `id` must fit (`Value::fits`): a field's
    /// or metadata's own width, a `SetField` target's; `None` for the other
    /// actions, whose cells have no width (and for a `SetField` whose target
    /// is not in the catalog, which `Pipeline::validate` refuses).
    pub(crate) fn cell_width(&self, id: AttrId) -> Option<u32> {
        let a = self.attr(id);
        match a.kind {
            AttrKind::Field | AttrKind::Meta => Some(a.width),
            AttrKind::Action(ActionSem::SetField(target)) => {
                self.attrs.get(target.index()).map(|t| t.width)
            }
            AttrKind::Action(_) => None,
        }
    }

    /// Number of registered attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if no attributes are registered.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate over `(id, attribute)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &Attribute)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u32), a))
    }

    /// Ids of all matchable (field or metadata) attributes.
    pub fn matchable_ids(&self) -> Vec<AttrId> {
        self.iter()
            .filter(|(_, a)| a.kind.is_matchable())
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_registers_and_looks_up() {
        let mut c = Catalog::new();
        let ip = c.field("ip_dst", 32);
        let out = c.action("out", ActionSem::Output);
        assert_eq!(c.lookup("ip_dst"), Some(ip));
        assert_eq!(c.lookup("out"), Some(out));
        assert_eq!(c.lookup("nope"), None);
        assert_eq!(c.name(ip), "ip_dst");
        assert_eq!(c.len(), 2);
        assert!(c.attr(ip).kind.is_matchable());
        assert!(c.attr(out).kind.is_action());
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.field("f", 8);
        c.field("f", 8);
    }

    #[test]
    #[should_panic(expected = "exceeds 64 bits")]
    fn oversized_width_rejected() {
        let mut c = Catalog::new();
        c.field("f", 65);
    }

    #[test]
    fn matchable_ids_excludes_actions() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let m = c.meta("m", 8);
        c.action("a", ActionSem::Output);
        assert_eq!(c.matchable_ids(), vec![f, m]);
    }
}
