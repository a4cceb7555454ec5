//! The [`MetaWalk`] type: label sequences with optional \*-labels.

use std::fmt;

use repsim_graph::{Graph, LabelId, LabelKind, LabelSet};

/// One position in a meta-walk.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Step {
    /// An entity label. When `star` is set, the label is a \*-label (§5.2):
    /// walks through it are collapsed to mere existence of a connection,
    /// written `*label` in text form (the paper draws an overline).
    Entity {
        /// The entity label.
        label: LabelId,
        /// Whether this occurrence is \*-marked.
        star: bool,
    },
    /// A relationship (valueless) label.
    Rel(LabelId),
}

impl Step {
    /// A plain (unstarred) entity step.
    pub fn entity(label: LabelId) -> Step {
        Step::Entity { label, star: false }
    }

    /// A \*-marked entity step.
    pub fn star(label: LabelId) -> Step {
        Step::Entity { label, star: true }
    }

    /// The label regardless of step kind.
    pub fn label(self) -> LabelId {
        match self {
            Step::Entity { label, .. } => label,
            Step::Rel(label) => label,
        }
    }

    /// Whether the step is an entity step (starred or not).
    pub fn is_entity(self) -> bool {
        matches!(self, Step::Entity { .. })
    }

    /// Whether the step is a \*-marked entity.
    pub fn is_star(self) -> bool {
        matches!(self, Step::Entity { star: true, .. })
    }
}

/// A meta-walk: a sequence of labels that starts and ends with entity labels
/// (§4.1; walks that do not start and end at entities carry no inter-entity
/// information and are excluded by the paper).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MetaWalk {
    steps: Vec<Step>,
}

impl MetaWalk {
    /// Builds a meta-walk from steps.
    ///
    /// # Panics
    /// If the sequence is empty or does not start and end with entity steps,
    /// or if the two endpoint steps are \*-marked (a \*-label stands for an
    /// *internal* collapsed connection; endpoints are what the walk relates).
    pub fn new(steps: Vec<Step>) -> MetaWalk {
        assert!(!steps.is_empty(), "empty meta-walk");
        let first = steps[0];
        let last = steps[steps.len() - 1];
        assert!(
            first.is_entity() && last.is_entity(),
            "meta-walk must start and end with entity labels"
        );
        assert!(
            !first.is_star() && !last.is_star(),
            "meta-walk endpoints cannot be *-labels"
        );
        MetaWalk { steps }
    }

    /// Builds a meta-walk of plain entity/relationship steps from labels,
    /// using the graph's label kinds to pick the step kind.
    pub fn from_labels(labels: &LabelSet, seq: &[LabelId]) -> MetaWalk {
        let steps = seq
            .iter()
            .map(|&l| match labels.kind(l) {
                LabelKind::Entity => Step::entity(l),
                LabelKind::Relationship => Step::Rel(l),
            })
            .collect();
        MetaWalk::new(steps)
    }

    /// Parses a meta-walk from a whitespace-separated list of label names,
    /// where `*name` marks a \*-label: `"conf *paper dom kw dom *paper conf"`.
    ///
    /// Returns `None` if any label is unknown, a `*` is applied to a
    /// relationship label, or the shape constraints of [`MetaWalk::new`]
    /// would be violated.
    ///
    /// ```
    /// use repsim_graph::GraphBuilder;
    /// use repsim_metawalk::MetaWalk;
    ///
    /// let mut b = GraphBuilder::new();
    /// b.entity_label("film");
    /// b.entity_label("actor");
    /// b.relationship_label("starring");
    /// let labels = b.labels().clone();
    ///
    /// let mw = MetaWalk::parse(&labels, "film starring actor starring film").unwrap();
    /// assert_eq!(mw.len(), 5);
    /// assert!(mw.is_symmetric());
    /// assert!(MetaWalk::parse(&labels, "starring film").is_none());
    /// ```
    pub fn parse(labels: &LabelSet, text: &str) -> Option<MetaWalk> {
        let mut steps = Vec::new();
        for token in text.split_whitespace() {
            let (star, name) = match token.strip_prefix('*') {
                Some(rest) => (true, rest),
                None => (false, token),
            };
            let label = labels.get(name)?;
            let step = match labels.kind(label) {
                LabelKind::Entity => Step::Entity { label, star },
                LabelKind::Relationship if !star => Step::Rel(label),
                LabelKind::Relationship => return None,
            };
            steps.push(step);
        }
        let (Some(first), Some(last)) = (steps.first(), steps.last()) else {
            return None;
        };
        if !first.is_entity() || first.is_star() || !last.is_entity() || last.is_star() {
            return None;
        }
        Some(MetaWalk { steps })
    }

    /// The steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps (labels) in the meta-walk.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Meta-walks are never empty; this always returns `false`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first label.
    pub fn source(&self) -> LabelId {
        self.steps[0].label()
    }

    /// The last label.
    pub fn target(&self) -> LabelId {
        self.steps[self.steps.len() - 1].label()
    }

    /// Whether any step is \*-marked.
    pub fn has_star(&self) -> bool {
        self.steps.iter().any(|s| s.is_star())
    }

    /// The labels of the entity steps, in order.
    pub fn entity_labels(&self) -> Vec<LabelId> {
        self.steps
            .iter()
            .filter(|s| s.is_entity())
            .map(|s| s.label())
            .collect()
    }

    /// The reverse meta-walk `p⁻¹ = (l_n, …, l_0)` (§4.1).
    pub fn reversed(&self) -> MetaWalk {
        let mut steps = self.steps.clone();
        steps.reverse();
        MetaWalk { steps }
    }

    /// Concatenation `p·r` (§4.1): requires `p`'s last label to equal `r`'s
    /// first label; the junction occurs once in the result.
    ///
    /// # Panics
    /// If the junction labels (or their star marks) differ.
    pub fn concat(&self, other: &MetaWalk) -> MetaWalk {
        let last = self.steps[self.steps.len() - 1];
        assert_eq!(
            last, other.steps[0],
            "concat junction mismatch: {last:?} vs {:?}",
            other.steps[0]
        );
        let mut steps = self.steps.clone();
        steps.extend_from_slice(&other.steps[1..]);
        MetaWalk { steps }
    }

    /// The symmetric closure `p·p⁻¹` used for similarity queries
    /// (Algorithm 1 line 28 concatenates each meta-walk with its reverse).
    pub fn symmetric_closure(&self) -> MetaWalk {
        self.concat(&self.reversed())
    }

    /// Whether the meta-walk is palindromic (equal to its reverse), which
    /// makes its commuting matrix symmetric.
    pub fn is_symmetric(&self) -> bool {
        self == &self.reversed()
    }

    /// The half `p` of a symmetric closure `p·p⁻¹`: the steps up to and
    /// including the midpoint. `None` when the walk is not symmetric, has
    /// an even number of steps, or its midpoint is a relationship or
    /// \*-label, which cannot end a meta-walk
    /// (`paper cite paper cite paper cite paper` has `cite` there).
    pub fn half(&self) -> Option<MetaWalk> {
        let mid = self.steps.len() / 2;
        let end = self.steps[mid];
        if self.steps.len().is_multiple_of(2)
            || !self.is_symmetric()
            || !end.is_entity()
            || end.is_star()
        {
            return None;
        }
        Some(MetaWalk {
            steps: self.steps[..=mid].to_vec(),
        })
    }

    /// Whether every entity label's nearest entity labels differ from it —
    /// the hypothesis of Theorem 4.2 under which plain PathSim is already
    /// representation independent.
    pub fn has_distinct_adjacent_entities(&self) -> bool {
        let ents = self.entity_labels();
        ents.windows(2).all(|w| w[0] != w[1])
    }

    /// Renders with the graph's label names (`*` prefix for \*-labels).
    pub fn display(&self, labels: &LabelSet) -> String {
        let parts: Vec<String> = self
            .steps
            .iter()
            .map(|s| match s {
                Step::Entity { label, star: true } => format!("*{}", labels.name(*label)),
                _ => labels.name(s.label()).to_owned(),
            })
            .collect();
        parts.join(" ")
    }

    /// Convenience: parse against a graph's labels (see [`MetaWalk::parse`]).
    pub fn parse_in(g: &Graph, text: &str) -> Option<MetaWalk> {
        MetaWalk::parse(g.labels(), text)
    }
}

impl fmt::Display for MetaWalk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .steps
            .iter()
            .map(|s| match s {
                Step::Entity { label, star: true } => format!("*l{}", label.0),
                Step::Entity { label, star: false } => format!("l{}", label.0),
                Step::Rel(label) => format!("r{}", label.0),
            })
            .collect();
        write!(f, "({})", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repsim_graph::GraphBuilder;

    fn labels() -> LabelSet {
        let mut b = GraphBuilder::new();
        b.entity_label("conf");
        b.entity_label("paper");
        b.entity_label("dom");
        b.relationship_label("cite");
        b.labels().clone()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let ls = labels();
        let mw = MetaWalk::parse(&ls, "conf *paper dom *paper conf").unwrap();
        assert_eq!(mw.display(&ls), "conf *paper dom *paper conf");
        assert!(mw.has_star());
        assert_eq!(mw.len(), 5);
        assert_eq!(ls.name(mw.source()), "conf");
        assert_eq!(ls.name(mw.target()), "conf");
    }

    #[test]
    fn parse_rejects_bad_shapes() {
        let ls = labels();
        assert!(MetaWalk::parse(&ls, "").is_none());
        assert!(
            MetaWalk::parse(&ls, "cite paper").is_none(),
            "must start with entity"
        );
        assert!(
            MetaWalk::parse(&ls, "paper cite").is_none(),
            "must end with entity"
        );
        assert!(
            MetaWalk::parse(&ls, "paper ghost paper").is_none(),
            "unknown label"
        );
        assert!(
            MetaWalk::parse(&ls, "paper *cite paper").is_none(),
            "star on rel label"
        );
        assert!(
            MetaWalk::parse(&ls, "*paper dom").is_none(),
            "star endpoint"
        );
    }

    #[test]
    fn reverse_and_concat() {
        let ls = labels();
        let p = MetaWalk::parse(&ls, "conf paper dom").unwrap();
        let r = p.reversed();
        assert_eq!(r.display(&ls), "dom paper conf");
        let s = p.concat(&r);
        assert_eq!(s.display(&ls), "conf paper dom paper conf");
        assert_eq!(s, p.symmetric_closure());
        assert!(s.is_symmetric());
        assert!(!p.is_symmetric());
    }

    #[test]
    fn half_inverts_the_symmetric_closure() {
        let ls = labels();
        let p = MetaWalk::parse(&ls, "conf paper dom").unwrap();
        assert_eq!(p.symmetric_closure().half(), Some(p.clone()));
        assert_eq!(p.half(), None, "not symmetric");
        let paper = MetaWalk::parse(&ls, "paper").unwrap();
        assert_eq!(paper.half(), Some(paper.clone()));
        for text in [
            "paper cite paper cite paper cite paper",
            "conf *paper conf",
            "paper cite cite paper",
            "paper paper",
        ] {
            let mw = MetaWalk::parse(&ls, text).unwrap();
            assert!(mw.is_symmetric());
            assert_eq!(mw.half(), None, "{text}");
        }
    }

    #[test]
    #[should_panic(expected = "junction mismatch")]
    fn concat_checks_junction() {
        let ls = labels();
        let p = MetaWalk::parse(&ls, "conf paper").unwrap();
        let q = MetaWalk::parse(&ls, "dom paper").unwrap();
        let _ = p.concat(&q);
    }

    #[test]
    fn adjacent_entity_distinctness() {
        let ls = labels();
        let good = MetaWalk::parse(&ls, "conf paper dom").unwrap();
        assert!(good.has_distinct_adjacent_entities());
        let bad = MetaWalk::parse(&ls, "paper cite paper cite paper").unwrap();
        assert!(!bad.has_distinct_adjacent_entities());
        assert_eq!(bad.entity_labels().len(), 3);
    }

    #[test]
    fn from_labels_uses_kinds() {
        let ls = labels();
        let paper = ls.get("paper").unwrap();
        let cite = ls.get("cite").unwrap();
        let mw = MetaWalk::from_labels(&ls, &[paper, cite, paper]);
        assert_eq!(mw.steps()[1], Step::Rel(cite));
        assert!(mw.steps()[0].is_entity());
    }

    #[test]
    #[should_panic(expected = "start and end with entity")]
    fn new_rejects_rel_endpoint() {
        let ls = labels();
        let cite = ls.get("cite").unwrap();
        let paper = ls.get("paper").unwrap();
        let _ = MetaWalk::new(vec![Step::Rel(cite), Step::entity(paper)]);
    }
}
