//! Columnar relation storage with set semantics.
//!
//! Every degree statistic of a relation comes from one kernel,
//! [`Relation::degree_runs`]: a single sort of flat `u64` keys (or of row
//! indices, for wide conditionals) per degree conditional `(V | U)`, with no
//! per-row allocation.  A degree sequence costs one sort; collecting all of
//! a relation's simple statistics costs one sort per attribute (see
//! [`crate::stats`]); and the degree partitions of `lpb-exec` reuse the
//! same runs to cut their parts with [`Relation::split_rows`].

use crate::degree::DegreeSequence;
use crate::error::DataError;
use crate::schema::{AttrId, Schema};

/// An in-memory relation: a named schema plus one `u64` column per attribute.
///
/// Relations follow **set semantics** (the paper's setting): the
/// [`RelationBuilder`](crate::RelationBuilder) deduplicates rows on build, and
/// [`Relation::project`] deduplicates its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    schema: Schema,
    columns: Vec<Vec<u64>>,
    n_rows: usize,
}

impl Relation {
    /// Construct a relation directly from columns.
    ///
    /// All columns must have equal length and there must be exactly one
    /// column per schema attribute.  Rows are **not** deduplicated here; use
    /// [`Relation::deduplicated`] or the builder when set semantics must be
    /// enforced.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Vec<u64>>,
    ) -> Result<Self, DataError> {
        if columns.len() != schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: schema.arity(),
                got: columns.len(),
            });
        }
        let n_rows = columns.first().map_or(0, Vec::len);
        if columns.iter().any(|c| c.len() != n_rows) {
            return Err(DataError::ArityMismatch {
                expected: n_rows,
                got: columns.iter().map(Vec::len).max().unwrap_or(0),
            });
        }
        Ok(Relation {
            name: name.into(),
            schema,
            columns,
            n_rows,
        })
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the relation (useful for self-joins where the same data plays
    /// two roles).
    pub fn with_name(&self, name: impl Into<String>) -> Relation {
        Relation {
            name: name.into(),
            ..self.clone()
        }
    }

    /// Schema of the relation.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rebind the attribute names (same arity, same data).  Used for
    /// self-joins, e.g. using an edge relation `R(src, dst)` as the atom
    /// `R(Y, Z)` of a query.
    pub fn with_schema(&self, schema: Schema) -> Result<Relation, DataError> {
        if schema.arity() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                got: schema.arity(),
            });
        }
        Ok(Relation {
            name: self.name.clone(),
            schema,
            columns: self.columns.clone(),
            n_rows: self.n_rows,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Borrow the column at attribute position `attr`.
    pub fn column(&self, attr: AttrId) -> &[u64] {
        &self.columns[attr]
    }

    /// Value of attribute `attr` in row `row`.
    #[inline]
    pub fn value(&self, row: usize, attr: AttrId) -> u64 {
        self.columns[attr][row]
    }

    /// Materialize row `row` as a vector of values in schema order.
    pub fn row(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c[row]).collect()
    }

    /// Iterate over all rows in storage order.
    pub fn rows(&self) -> impl Iterator<Item = Vec<u64>> + '_ {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// Materialize the key of row `row` restricted to attribute positions
    /// `attrs` (in the order given).
    pub fn key(&self, row: usize, attrs: &[AttrId]) -> Vec<u64> {
        attrs.iter().map(|&a| self.columns[a][row]).collect()
    }

    /// Return a copy with duplicate rows removed.
    pub fn deduplicated(&self) -> Relation {
        let mut rows: Vec<Vec<u64>> = self.rows().collect();
        rows.sort_unstable();
        rows.dedup();
        Self::from_sorted_rows(self.name.clone(), self.schema.clone(), rows)
    }

    /// Project onto the named attributes (with duplicate elimination).
    pub fn project(&self, attrs: &[&str]) -> Result<Relation, DataError> {
        let positions = self.schema.positions(attrs.iter().copied())?;
        let mut rows: Vec<Vec<u64>> = (0..self.n_rows).map(|r| self.key(r, &positions)).collect();
        rows.sort_unstable();
        rows.dedup();
        let schema = Schema::new(attrs.iter().map(|s| s.to_string()))?;
        Ok(Self::from_sorted_rows(
            format!("π_{{{}}}({})", attrs.join(","), self.name),
            schema,
            rows,
        ))
    }

    /// Number of distinct values of the given attribute set, `|Π_attrs(R)|`.
    pub fn distinct_count(&self, attrs: &[&str]) -> Result<usize, DataError> {
        Ok(self.project(attrs)?.len())
    }

    /// The degree sequence `deg_R(V | U)` of the paper (§1.2): project onto
    /// `U ∪ V` (with deduplication), group by `U`, and collect the group
    /// sizes in non-increasing order.
    ///
    /// When `U` is empty the bipartite graph has a single `U`-node, so the
    /// sequence is the single value `|Π_V(R)|`.  Costs one sort (see
    /// [`degree_runs`](Self::degree_runs)).
    pub fn degree_sequence(&self, v: &[&str], u: &[&str]) -> Result<DegreeSequence, DataError> {
        Ok(self.degree_runs(v, u)?.sequence())
    }

    /// The degree kernel behind every degree statistic: **one sort** of the
    /// rows by `(U, V)`, walked once to find each distinct `U`-value's rows
    /// and its degree (the number of distinct `V`-values it pairs with).
    ///
    /// Nothing is allocated per row: when `|U| ≤ 1` and `|V| = 1` — every
    /// simple conditional of a binary relation — the sort runs over packed
    /// `(u, v, row)` keys read straight from the columns; otherwise it sorts
    /// row indices, comparing the `U` columns and then the `V` columns.
    /// Duplicate `(U, V)` pairs count once (set semantics), and an empty `U`
    /// yields a single run of degree `|Π_V(R)|` (for a non-empty relation).
    pub fn degree_runs(&self, v: &[&str], u: &[&str]) -> Result<DegreeRuns, DataError> {
        if v.is_empty() {
            return Err(DataError::InvalidConditional {
                reason: "the dependent attribute set V of deg(V | U) must be non-empty".into(),
            });
        }
        let u_pos = self.schema.positions(u.iter().copied())?;
        let v_pos = self.schema.positions(v.iter().copied())?;
        if let ([], [v]) | ([_], [v]) = (u_pos.as_slice(), v_pos.as_slice()) {
            let u_col = u_pos.first().map(|&a| self.column(a));
            let mut keys: Vec<(u64, u64, usize)> = self.columns[*v]
                .iter()
                .enumerate()
                .map(|(row, &val)| (u_col.map_or(0, |c| c[row]), val, row))
                .collect();
            keys.sort_unstable();
            let runs = DegreeRuns::walk(
                keys.len(),
                |a, b| keys[a].0 == keys[b].0,
                |a, b| keys[a].1 == keys[b].1,
            );
            return Ok(DegreeRuns {
                order: keys.into_iter().map(|k| k.2).collect(),
                runs,
            });
        }
        let mut order: Vec<usize> = (0..self.n_rows).collect();
        order.sort_unstable_by(|&a, &b| {
            self.cmp_rows_on(&u_pos, a, b)
                .then_with(|| self.cmp_rows_on(&v_pos, a, b))
        });
        let runs = DegreeRuns::walk(
            order.len(),
            |a, b| self.cmp_rows_on(&u_pos, order[a], order[b]).is_eq(),
            |a, b| self.cmp_rows_on(&v_pos, order[a], order[b]).is_eq(),
        );
        Ok(DegreeRuns { order, runs })
    }

    /// Split the rows into parts: row `r` goes to part `part_of[r]`, and
    /// part `i` is named `names[i]` and keeps this relation's schema.  Every
    /// part lists its rows the way [`RelationBuilder`](crate::RelationBuilder)
    /// would — sorted, with duplicate rows kept once — so a part equals the
    /// relation a builder fed the same rows produces.  One pass over the
    /// columns; the rows are sorted only when this relation is not already
    /// in builder order.
    ///
    /// # Panics
    /// When `part_of` does not have one entry per row or names a part past
    /// `names`.
    pub fn split_rows(&self, names: Vec<String>, part_of: &[usize]) -> Vec<Relation> {
        assert_eq!(part_of.len(), self.n_rows, "one part index per row");
        let all: Vec<AttrId> = (0..self.arity()).collect();
        // Size every part's columns up front: parts often outlive the split
        // (plans carry them), so they should not keep growth slack.
        let mut sizes = vec![0; names.len()];
        for &part in part_of {
            sizes[part] += 1;
        }
        let mut parts: Vec<Relation> = names
            .into_iter()
            .zip(sizes)
            .map(|(name, size)| Relation {
                name,
                schema: self.schema.clone(),
                columns: (0..self.arity())
                    .map(|_| Vec::with_capacity(size))
                    .collect(),
                n_rows: 0,
            })
            .collect();
        let push = |row: usize| {
            let part = &mut parts[part_of[row]];
            for (col, values) in part.columns.iter_mut().zip(&self.columns) {
                col.push(values[row]);
            }
            part.n_rows += 1;
        };
        let in_builder_order = (1..self.n_rows).all(|r| self.cmp_rows_on(&all, r - 1, r).is_lt());
        if in_builder_order {
            (0..self.n_rows).for_each(push);
        } else {
            let mut order: Vec<usize> = (0..self.n_rows).collect();
            order.sort_unstable_by(|&a, &b| self.cmp_rows_on(&all, a, b));
            order.dedup_by(|a, b| self.cmp_rows_on(&all, *a, *b).is_eq());
            order.into_iter().for_each(push);
        }
        parts
    }

    /// Compare rows `a` and `b` lexicographically on the given columns.
    fn cmp_rows_on(&self, attrs: &[AttrId], a: usize, b: usize) -> std::cmp::Ordering {
        attrs
            .iter()
            .map(|&c| self.columns[c][a].cmp(&self.columns[c][b]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    }

    fn from_sorted_rows(name: String, schema: Schema, rows: Vec<Vec<u64>>) -> Relation {
        let arity = schema.arity();
        let mut columns = vec![Vec::with_capacity(rows.len()); arity];
        for row in &rows {
            for (c, &v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Relation {
            name,
            schema,
            n_rows: rows.len(),
            columns,
        }
    }
}

/// The rows of a relation grouped by their `U`-value for one conditional
/// `(V | U)`, as [`Relation::degree_runs`] computes them with a single sort:
/// one *run* per distinct `U`-value, in ascending `U` order, each holding
/// its rows and its degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeRuns {
    /// Row indices sorted by `(U, V)`; each run is a contiguous slice.
    order: Vec<usize>,
    /// Per run: its end offset into `order` and its degree.
    runs: Vec<(usize, u64)>,
}

impl DegreeRuns {
    /// The runs in ascending `U` order: each `U`-value's degree and its row
    /// indices (every row carrying that `U`-value, duplicates included).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[usize])> + '_ {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|&(end, _)| end));
        starts
            .zip(&self.runs)
            .map(move |(start, &(end, degree))| (degree, &self.order[start..end]))
    }

    /// The degree sequence `deg_R(V | U)`: the runs' degrees, non-increasing.
    pub fn sequence(&self) -> DegreeSequence {
        DegreeSequence::from_counts(self.runs.iter().map(|&(_, d)| d).collect())
    }

    /// Split `n` sorted keys into runs of equal `U` and count each run's
    /// distinct `V`-values; the predicates compare the keys at two sorted
    /// positions.  Returns each run's end position and degree.
    fn walk(
        n: usize,
        same_u: impl Fn(usize, usize) -> bool,
        same_v: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, u64)> {
        let mut runs = Vec::new();
        let mut start = 0;
        while start < n {
            let mut degree = 1;
            let mut end = start + 1;
            while end < n && same_u(start, end) {
                if !same_v(end - 1, end) {
                    degree += 1;
                }
                end += 1;
            }
            runs.push((end, degree));
            start = end;
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_relation() -> Relation {
        // R(x, y) = {(1,10),(1,11),(1,12),(2,10),(3,10)}
        let schema = Schema::new(["x", "y"]).unwrap();
        Relation::from_columns(
            "R",
            schema,
            vec![vec![1, 1, 1, 2, 3], vec![10, 11, 12, 10, 10]],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let r = edge_relation();
        assert_eq!(r.name(), "R");
        assert_eq!(r.len(), 5);
        assert!(!r.is_empty());
        assert_eq!(r.arity(), 2);
        assert_eq!(r.row(3), vec![2, 10]);
        assert_eq!(r.value(1, 1), 11);
        assert_eq!(r.column(0), &[1, 1, 1, 2, 3]);
        assert_eq!(r.rows().count(), 5);
        assert_eq!(r.key(0, &[1, 0]), vec![10, 1]);
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = Schema::new(["a", "b"]).unwrap();
        assert!(Relation::from_columns("T", schema.clone(), vec![vec![1]]).is_err());
        assert!(Relation::from_columns("T", schema, vec![vec![1, 2], vec![3]]).is_err());
    }

    #[test]
    fn projection_deduplicates() {
        let r = edge_relation();
        let px = r.project(&["x"]).unwrap();
        assert_eq!(px.len(), 3);
        let py = r.project(&["y"]).unwrap();
        assert_eq!(py.len(), 3);
        assert_eq!(r.distinct_count(&["x", "y"]).unwrap(), 5);
    }

    #[test]
    fn degree_sequence_simple_conditional() {
        let r = edge_relation();
        // deg(y | x): x=1 has 3 partners, x=2 has 1, x=3 has 1.
        let d = r.degree_sequence(&["y"], &["x"]).unwrap();
        assert_eq!(d.as_slice(), &[3, 1, 1]);
        // deg(x | y): y=10 has 3 partners, y=11 and y=12 have 1.
        let d = r.degree_sequence(&["x"], &["y"]).unwrap();
        assert_eq!(d.as_slice(), &[3, 1, 1]);
    }

    #[test]
    fn degree_sequence_empty_u_is_projection_size() {
        let r = edge_relation();
        let d = r.degree_sequence(&["y"], &[]).unwrap();
        assert_eq!(d.as_slice(), &[3]);
        let d = r.degree_sequence(&["x", "y"], &[]).unwrap();
        assert_eq!(d.as_slice(), &[5]);
    }

    #[test]
    fn degree_sequence_requires_nonempty_v() {
        let r = edge_relation();
        assert!(matches!(
            r.degree_sequence(&[], &["x"]),
            Err(DataError::InvalidConditional { .. })
        ));
    }

    #[test]
    fn degree_sequence_ignores_duplicate_uv_pairs() {
        let schema = Schema::new(["x", "y", "z"]).unwrap();
        // Two rows share the same (x, y) but different z: deg(y|x) counts the
        // (x, y) pair once.
        let r = Relation::from_columns(
            "T",
            schema,
            vec![vec![1, 1, 2], vec![5, 5, 6], vec![100, 200, 300]],
        )
        .unwrap();
        let d = r.degree_sequence(&["y"], &["x"]).unwrap();
        assert_eq!(d.as_slice(), &[1, 1]);
    }

    #[test]
    fn deduplicated_removes_repeated_rows() {
        let schema = Schema::new(["a"]).unwrap();
        let r = Relation::from_columns("T", schema, vec![vec![1, 1, 2, 2, 2]]).unwrap();
        assert_eq!(r.deduplicated().len(), 2);
    }

    #[test]
    fn with_schema_renames_attributes() {
        let r = edge_relation();
        let s = r.with_schema(Schema::new(["y", "z"]).unwrap()).unwrap();
        assert_eq!(s.schema().attrs(), &["y".to_string(), "z".to_string()]);
        assert_eq!(s.len(), r.len());
        assert!(r.with_schema(Schema::new(["a"]).unwrap()).is_err());
        let renamed = r.with_name("S");
        assert_eq!(renamed.name(), "S");
    }
}
