package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrderAnalyzer builds the module-wide lock-acquisition graph and
// reports cycles. locksafe (per-function, lexical) keeps channel
// operations out of critical sections; lockorder runs the same lexical
// held-set walk (lockWalk) across the whole module: every time mutex B is
// acquired while mutex A is held, the analyzer records the edge A→B, and
// a cycle in the merged graph means two code paths acquire the same
// locks in opposite orders — the classic deadlock that no single
// function, package, or test schedule exhibits. The sharded caches, the
// store's writer, and the engine's aggregators each own a mutex; an
// innocent helper that locks "the other" shard first is invisible in
// review and fatal under load.
//
// Locks are identified structurally, not by instance: a field mutex is
// "pkg.Type.field" and a package-level mutex is "pkg.var", so two
// goroutines locking different *instances* of the same field still count
// as one node. That is deliberately conservative — the sharded caches
// lock at most one shard of a given cache per goroutine, and an
// order-inverted pair of *instances* of one lock class (lock(a); lock(b)
// vs lock(b); lock(a) on the same field) is a real deadlock that
// instance-precise analysis would miss. Self-edges (A while holding A)
// are reported too: with one instance that is an immediate deadlock, and
// with two it is the unordered-instances hazard. Local mutex variables
// have no stable cross-function identity and are skipped.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc: "module-wide lock-acquisition graph: acquiring mutex B while holding mutex A " +
		"orders A before B; a cycle in that order is a potential deadlock",
	RunModule: runLockOrder,
}

// lockEdge is one observed acquisition: to was locked while from was held.
type lockEdge struct {
	from, to string
	pos      token.Position
}

func runLockOrder(mp *ModulePass) error {
	var edges []lockEdge
	for _, p := range mp.Pkgs {
		info := p.Info
		w := &lockWalk{
			info: info,
			key:  func(x ast.Expr) (string, bool) { return lockID(info, x) },
			acquire: func(to string, call ast.Expr, held map[string]bool) {
				for from := range held {
					edges = append(edges, lockEdge{from: from, to: to, pos: mp.Fset.Position(call.Pos())})
				}
			},
		}
		for _, f := range p.Files {
			w.file(f)
		}
	}
	reportLockCycles(mp, edges)
	return nil
}

// lockID canonicalizes a lock expression to its structural identity:
// "pkg.Type.field" for field mutexes (whatever the instance), "pkg.var"
// for package-level mutexes. Locals return ok=false.
func lockID(info *types.Info, expr ast.Expr) (string, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			v, isVar := sel.Obj().(*types.Var)
			if !isVar {
				return "", false
			}
			recv := sel.Recv()
			if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
				recv = p.Elem()
			}
			if named, isNamed := recv.(*types.Named); isNamed {
				owner := named.Obj()
				return owner.Pkg().Name() + "." + owner.Name() + "." + v.Name(), true
			}
			return "", false
		}
		// Package-qualified: pkg.mu.
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", false
		}
		// Only package-level variables have a stable identity.
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	}
	return "", false
}

// reportLockCycles finds cycles in the merged acquisition graph and
// reports each once, at its deterministically-first edge. The message
// names the full cycle and the reverse-path edge that closes it, so the
// finding reads as the pair of call sites to reconcile.
func reportLockCycles(mp *ModulePass, edges []lockEdge) {
	if len(edges) == 0 {
		return
	}
	// First observed position per (from,to) pair; dedup keeps the walk's
	// deterministic file/statement order.
	adj := make(map[string]map[string]token.Position)
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]token.Position)
		}
		if _, seen := adj[e.from][e.to]; !seen {
			adj[e.from][e.to] = e.pos
		}
	}
	uniq := make([]lockEdge, 0, len(edges))
	seenPair := make(map[string]bool)
	for _, e := range edges {
		key := e.from + "\x00" + e.to
		if !seenPair[key] {
			seenPair[key] = true
			uniq = append(uniq, e)
		}
	}
	sort.SliceStable(uniq, func(i, j int) bool {
		if uniq[i].from != uniq[j].from {
			return uniq[i].from < uniq[j].from
		}
		return uniq[i].to < uniq[j].to
	})

	reported := make(map[string]bool)
	for _, e := range uniq {
		if e.from == e.to {
			mp.ReportPosf(e.pos,
				"lock order cycle: %s is acquired while already held; same instance self-deadlocks, two instances have no consistent order — release first or establish a tiebreak order",
				e.from)
			continue
		}
		path := lockPath(adj, e.to, e.from)
		if path == nil {
			continue
		}
		// path = [e.to, ..., e.from]; the cycle's node list (each node
		// once) is e.from followed by path minus its terminal e.from.
		nodes := append([]string{e.from}, path[:len(path)-1]...)
		key := canonicalCycle(nodes)
		if reported[key] {
			continue
		}
		reported[key] = true
		back := adj[e.to][path[1]]
		display := strings.Join(append(append([]string{}, nodes...), nodes[0]), " -> ")
		mp.ReportPosf(e.pos,
			"lock order cycle: %s; acquiring %s while holding %s here conflicts with the reverse order at %s:%d — acquire these locks in one consistent order",
			display, e.to, e.from, shortPath(back.Filename), back.Line)
	}
}

// lockPath returns a shortest node path from -> ... -> to (inclusive) in
// the acquisition graph, or nil. Neighbor order is sorted, so the path —
// and with it the reported cycle — is deterministic.
func lockPath(adj map[string]map[string]token.Position, from, to string) []string {
	type item struct {
		node string
		path []string
	}
	queue := []item{{node: from, path: []string{from}}}
	visited := map[string]bool{from: true}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.node == to {
			return it.path
		}
		next := make([]string, 0, len(adj[it.node]))
		for n := range adj[it.node] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if visited[n] {
				continue
			}
			visited[n] = true
			queue = append(queue, item{node: n, path: append(append([]string{}, it.path...), n)})
		}
	}
	return nil
}

// canonicalCycle keys a cycle independent of its starting node so each
// cycle is reported once. The node list is rotated to start at its
// lexically-least element.
func canonicalCycle(nodes []string) string {
	min := 0
	for i := range nodes {
		if nodes[i] < nodes[min] {
			min = i
		}
	}
	rotated := append(append([]string{}, nodes[min:]...), nodes[:min]...)
	return strings.Join(rotated, "\x00")
}
