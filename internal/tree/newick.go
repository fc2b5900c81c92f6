package tree

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatNewick renders the tree as a Newick string, rooted for display
// at the internal node adjacent to taxon 0 (the standard RAxML
// convention). If supports is
// non-nil it maps Edge→support (in [0,100]) and internal nodes are
// annotated with the support of their parent edge, the convention
// bootstrap-annotated RAxML trees use.
func FormatNewick(t *Tree, supports map[Edge]int) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	// Root at the internal neighbor of tip 0: tip 0 becomes the last
	// child so output is "(subtree,subtree,tip0);" — stable across runs.
	tip0 := 0
	root := t.Nodes[tip0].Neighbors[0]
	var b strings.Builder
	var walk func(node, parent int)
	walk = func(node, parent int) {
		n := &t.Nodes[node]
		if n.IsTip() {
			b.WriteString(escapeName(t.TaxonNames[n.Taxon]))
		} else {
			b.WriteByte('(')
			first := true
			for _, v := range n.Neighbors {
				if v < 0 || v == parent {
					continue
				}
				if !first {
					b.WriteByte(',')
				}
				first = false
				walk(v, node)
			}
			b.WriteByte(')')
			if supports != nil && parent >= 0 {
				e := Edge{node, parent}
				if e.A > e.B {
					e.A, e.B = e.B, e.A
				}
				if sup, ok := supports[e]; ok {
					fmt.Fprintf(&b, "%d", sup)
				}
			}
		}
		if parent >= 0 {
			// 10 significant digits, deliberately NOT the 17 a float64
			// round-trip needs: branch lengths optimized over different
			// rank/thread stripe shapes agree only to ~1e-10 relative
			// (rank-ordered partial reductions associate differently), so
			// full precision would make equal results print differently.
			// Replay exactness never relies on this text being lossless —
			// rapidbs canonicalizes its replicate chain through this same
			// format+parse, so live and checkpoint-resumed streams see
			// identical trees.
			fmt.Fprintf(&b, ":%s", strconv.FormatFloat(t.EdgeLength(node, parent), 'g', 10, 64))
		}
	}
	b.WriteByte('(')
	first := true
	for _, v := range t.Nodes[root].Neighbors {
		if v < 0 || v == tip0 {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		walk(v, root)
	}
	b.WriteByte(',')
	walk(tip0, root)
	b.WriteString(");")
	return b.String(), nil
}

func escapeName(name string) string {
	if strings.ContainsAny(name, "():;,[]' \t") {
		return "'" + strings.ReplaceAll(name, "'", "''") + "'"
	}
	return name
}

// ParseMultiNewick parses a file of one-Newick-per-line trees (the
// format of RAxML bootstrap-tree files) over a shared taxon set. Blank
// lines are skipped.
func ParseMultiNewick(data string, taxonNames []string) ([]*Tree, error) {
	var out []*Tree
	lineNo := 0
	for _, line := range strings.Split(data, "\n") {
		lineNo++
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		t, err := ParseNewick(line, taxonNames)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("newick: no trees in input")
	}
	return out, nil
}

// newickParser holds scanner state for ParseNewick.
type newickParser struct {
	s   string
	pos int
}

func (p *newickParser) peek() byte {
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *newickParser) next() byte {
	b := p.peek()
	p.pos++
	return b
}

func (p *newickParser) skipSpace() {
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *newickParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("newick: position %d: %s", p.pos, fmt.Sprintf(format, args...))
}

// parsed subtree: either a taxon name (leaf) or children.
type newickNode struct {
	name     string
	length   float64
	children []*newickNode
}

func (p *newickParser) parseSubtree() (*newickNode, error) {
	p.skipSpace()
	n := &newickNode{length: DefaultBranchLength}
	if p.peek() == '(' {
		p.next()
		for {
			child, err := p.parseSubtree()
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
			p.skipSpace()
			switch p.peek() {
			case ',':
				p.next()
			case ')':
				p.next()
				goto afterChildren
			default:
				return nil, p.errf("expected ',' or ')', found %q", p.peek())
			}
		}
	}
afterChildren:
	p.skipSpace()
	// optional label (taxon name for leaves, support label for internals)
	n.name = p.parseName()
	p.skipSpace()
	if p.peek() == ':' {
		p.next()
		length, err := p.parseNumber()
		if err != nil {
			return nil, err
		}
		if length < 0 {
			length = MinBranchLength
		}
		n.length = length
	}
	if len(n.children) == 0 && n.name == "" {
		return nil, p.errf("leaf with empty name")
	}
	return n, nil
}

func (p *newickParser) parseName() string {
	p.skipSpace()
	if p.peek() == '\'' {
		p.next()
		var b strings.Builder
		for p.pos < len(p.s) {
			c := p.next()
			if c == '\'' {
				if p.peek() == '\'' { // escaped quote
					b.WriteByte('\'')
					p.next()
					continue
				}
				break
			}
			b.WriteByte(c)
		}
		return b.String()
	}
	start := p.pos
	for p.pos < len(p.s) {
		switch p.s[p.pos] {
		case '(', ')', ',', ':', ';', ' ', '\t', '\n', '\r':
			return p.s[start:p.pos]
		}
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *newickParser) parseNumber() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, p.errf("expected number")
	}
	v, err := strconv.ParseFloat(p.s[start:p.pos], 64)
	if err != nil {
		return 0, p.errf("bad number %q: %v", p.s[start:p.pos], err)
	}
	return v, nil
}

// ParseNewick parses a Newick tree over the given taxon set. Taxon labels
// in the input must exactly match entries of taxonNames. Multifurcations
// other than the (customary) trifurcating root are rejected; a bifurcating
// root is silently unrooted, matching RAxML's treatment of rooted inputs.
func ParseNewick(s string, taxonNames []string) (*Tree, error) {
	p := &newickParser{s: s}
	p.skipSpace()
	if p.peek() != '(' {
		return nil, p.errf("tree must start with '('")
	}
	root, err := p.parseSubtree()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() == ';' {
		p.next()
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, p.errf("trailing characters after tree")
	}

	taxonIndex := make(map[string]int, len(taxonNames))
	for i, n := range taxonNames {
		taxonIndex[n] = i
	}

	t := New(taxonNames)
	seen := make([]bool, len(taxonNames))

	// build converts a parsed subtree into arena nodes, returning the id
	// of the subtree's attachment node.
	var build func(n *newickNode) (int, error)
	build = func(n *newickNode) (int, error) {
		if len(n.children) == 0 {
			idx, ok := taxonIndex[n.name]
			if !ok {
				return -1, fmt.Errorf("newick: unknown taxon %q", n.name)
			}
			if seen[idx] {
				return -1, fmt.Errorf("newick: duplicate taxon %q", n.name)
			}
			seen[idx] = true
			return idx, nil
		}
		if len(n.children) != 2 {
			return -1, fmt.Errorf("newick: internal node with %d children (only binary trees supported)", len(n.children))
		}
		id := t.NewInternal()
		for _, c := range n.children {
			cid, err := build(c)
			if err != nil {
				return -1, err
			}
			t.Connect(id, cid, c.length)
		}
		return id, nil
	}

	switch len(root.children) {
	case 3:
		id := t.NewInternal()
		for _, c := range root.children {
			cid, err := build(c)
			if err != nil {
				return nil, err
			}
			t.Connect(id, cid, c.length)
		}
	case 2:
		// Rooted input: suppress the root by joining its two children.
		left, err := build(root.children[0])
		if err != nil {
			return nil, err
		}
		right, err := build(root.children[1])
		if err != nil {
			return nil, err
		}
		t.Connect(left, right, root.children[0].length+root.children[1].length)
	default:
		return nil, fmt.Errorf("newick: root with %d children (want 2 or 3)", len(root.children))
	}

	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("newick: taxon %q missing from tree", taxonNames[i])
		}
	}
	return t, t.Validate()
}
