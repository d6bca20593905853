//! Strongly connected components: the one iterative Tarjan pass behind
//! [`crate::RoutingMdp::condensation`], the restricted SCC rounds of
//! [`crate::mec_decomposition`], and `meda-audit`'s condensation of a
//! strategy's induced chain (DESIGN.md §12, §14).
//!
//! The callers differ only in which edges they walk — every branch of a
//! state, the branches of its still-enabled choices into still-candidate
//! states, or the branches of one picked choice — so the pass takes that
//! walk as a closure and shares everything else.

/// The strongly-connected-component condensation of a directed graph over
/// states `0..n`, as computed by [`tarjan_scc`].
///
/// Components are numbered in Tarjan emission order, which is **reverse
/// topological** over the condensation DAG: for any cross-component edge
/// `u → v`, `component[v] < component[u]`. Sweeping components in
/// increasing id therefore visits every state only after all of its
/// out-of-component successors — the order topological value iteration
/// wants (values flow backward from the absorbing goal components, which
/// get the smallest ids among reachable components).
///
/// Self-loop edges (`i → i`) are ignored for the component structure —
/// both solver operators factor them out analytically, so a singleton
/// component never needs local iteration regardless of its self-loop mass.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id per state; `u32::MAX` for states the pass never
    /// visited (outside the root filter and unreachable from every root).
    pub component: Vec<u32>,
    /// `components() + 1` offsets into [`Condensation::members`].
    pub comp_start: Vec<u32>,
    /// Visited state indices grouped by component, components in
    /// increasing id, members of one component ascending.
    pub members: Vec<u32>,
}

impl Condensation {
    /// Number of components.
    #[must_use]
    pub fn components(&self) -> usize {
        self.comp_start.len() - 1
    }

    /// The member states of component `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= components()`.
    #[must_use]
    pub fn members_of(&self, k: usize) -> &[u32] {
        &self.members[self.comp_start[k] as usize..self.comp_start[k + 1] as usize]
    }

    /// Number of components with more than one state — the cyclic patches
    /// that force within-component iteration.
    #[must_use]
    pub fn nontrivial(&self) -> usize {
        (0..self.components())
            .filter(|&k| self.members_of(k).len() > 1)
            .count()
    }

    /// Size of the largest component.
    #[must_use]
    pub fn largest(&self) -> usize {
        (0..self.components())
            .map(|k| self.members_of(k).len())
            .max()
            .unwrap_or(0)
    }
}

/// Computes the SCC condensation of the graph over states `0..n` whose
/// out-edges from `v` are `successors(v)`, with an iterative Tarjan pass
/// (explicit stack; no recursion). DFS roots are the states passing `root`,
/// tried in ascending state id; each state's successor walk is consumed in
/// the order it yields, and self-loops are skipped. The result is therefore
/// a deterministic function of the walk — component ids depend on both
/// orders. `O(states + edges)`.
///
/// Every successor must be `< n`. A successor outside the root filter is
/// still visited; callers restricting the graph filter such edges in the
/// walk itself.
///
/// # Examples
///
/// ```
/// use meda_core::tarjan_scc;
///
/// // 0 → 1 ⇄ 2, and 2 → 3 (a sink).
/// let edges: [&[u32]; 4] = [&[1], &[2], &[1, 3], &[]];
/// let scc = tarjan_scc(4, |_| true, |v| edges[v].iter().copied());
/// assert_eq!(scc.components(), 3);
/// assert_eq!(scc.component[1], scc.component[2]);
/// // Successor components get smaller ids.
/// assert!(scc.component[3] < scc.component[1]);
/// assert!(scc.component[1] < scc.component[0]);
/// ```
#[must_use]
pub fn tarjan_scc<I>(
    n: usize,
    root: impl Fn(usize) -> bool,
    successors: impl Fn(usize) -> I,
) -> Condensation
where
    I: Iterator<Item = u32>,
{
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n]; // discovery index per state
    let mut lowlink = vec![0u32; n];
    let mut component = vec![UNVISITED; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new(); // Tarjan's SCC stack
    let mut next_index = 0u32;
    let mut comp_count = 0u32;
    // The DFS frame: a state and the rest of its successor walk.
    let mut dfs: Vec<(usize, I)> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED || !root(start) {
            continue;
        }
        let mut discover = Some(start);
        loop {
            if let Some(w) = discover.take() {
                index[w] = next_index;
                lowlink[w] = next_index;
                next_index += 1;
                stack.push(w);
                on_stack[w] = true;
                dfs.push((w, successors(w)));
            }
            let Some((v, walk)) = dfs.last_mut() else {
                break;
            };
            let v = *v;
            match walk.find(|&w| w as usize != v).map(|w| w as usize) {
                Some(w) if index[w] == UNVISITED => discover = Some(w),
                Some(w) => {
                    if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index[w]);
                    }
                }
                None => {
                    dfs.pop();
                    if let Some(&(parent, _)) = dfs.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[v]);
                    }
                    if lowlink[v] == index[v] {
                        // v roots a component: pop it off the SCC stack.
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            component[w] = comp_count;
                            if w == v {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }
    }

    // Group the visited states by component with a counting pass.
    let mut comp_start = vec![0u32; comp_count as usize + 1];
    for &c in component.iter().filter(|&&c| c != UNVISITED) {
        comp_start[c as usize + 1] += 1;
    }
    for k in 1..comp_start.len() {
        comp_start[k] += comp_start[k - 1];
    }
    let mut cursor = comp_start.clone();
    let mut members = vec![0u32; comp_start[comp_count as usize] as usize];
    for (s, &c) in (0u32..).zip(&component) {
        if c != UNVISITED {
            members[cursor[c as usize] as usize] = s;
            cursor[c as usize] += 1;
        }
    }
    Condensation {
        component,
        comp_start,
        members,
    }
}
