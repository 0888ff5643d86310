package uql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/textidx"
)

// Quantifier is the temporal quantifier of a UQL statement.
type Quantifier int

// Supported quantifiers.
const (
	QuantExists  Quantifier = iota // EXISTS Time IN [a, b]
	QuantForAll                    // FORALL Time IN [a, b]
	QuantAtLeast                   // ATLEAST x% Time IN [a, b]
	QuantAt                        // AT Time = tf WITHIN [a, b]
)

func (q Quantifier) String() string {
	switch q {
	case QuantExists:
		return "EXISTS"
	case QuantForAll:
		return "FORALL"
	case QuantAtLeast:
		return "ATLEAST"
	case QuantAt:
		return "AT"
	default:
		return fmt.Sprintf("Quantifier(%d)", int(q))
	}
}

// Stmt is a parsed UQL statement.
type Stmt struct {
	// AllObjects is true when the SELECT target is `T` (Categories 3/4);
	// otherwise TargetOID names a single object (Categories 1/2).
	AllObjects bool
	TargetOID  int64

	Quant   Quantifier
	Percent float64 // ATLEAST: required fraction in [0, 1]
	FixedT  float64 // AT: the instant
	Tb, Te  float64 // window

	QueryOID int64 // the paper's TrQ
	Rank     int   // 0 for ProbabilityNN, k >= 1 for ProbabilityKNN

	// Threshold is the probability bound of the predicate: 0 for the
	// possible-NN semantics (`> 0`, ranking-based), a value in (0, 1) for
	// continuous threshold queries (`> 0.65`, answered from sampled P^NN
	// series — the paper's Section 7 extension). It compiles to
	// engine.Request.P.
	Threshold float64
	// Certain selects the CertainNN predicate: the object is *guaranteed*
	// to be the nearest neighbor (its farthest possible distance below
	// everyone's nearest possible distance). It compiles to P = 1.
	Certain bool

	// Where restricts the statement to the matching sub-MOD (nil = no
	// filter). Parsed from TAGS CONTAINS clauses; tag sets are canonical
	// (lowercased, sorted, deduplicated) by construction.
	Where *textidx.Predicate
}

// ErrParse wraps all syntax errors.
var ErrParse = errors.New("uql: parse error")

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s (near offset %d)", ErrParse, fmt.Sprintf(format, args...), p.peek().pos)
}

func (p *parser) expectIdent(kw string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != kw {
		return fmt.Errorf("%w: expected %s, got %q (offset %d)", ErrParse, kw, t.text, t.pos)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("%w: expected %q, got %q (offset %d)", ErrParse, s, t.text, t.pos)
	}
	return nil
}

func (p *parser) number() (float64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("%w: expected number, got %q (offset %d)", ErrParse, t.text, t.pos)
	}
	v, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad number %q: %v", ErrParse, t.text, err)
	}
	return v, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("%w: expected integer, got %q (offset %d)", ErrParse, t.text, t.pos)
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad integer %q", ErrParse, t.text)
	}
	return v, nil
}

// sel parses a SELECT target: `T` or an integer OID.
func (p *parser) sel() (all bool, oid int64, err error) {
	t := p.peek()
	if t.kind == tokIdent && t.text == "T" {
		p.next()
		return true, 0, nil
	}
	oid, err = p.intLit()
	return false, oid, err
}

// Parse parses one UQL statement.
func Parse(src string) (*Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParse, err)
	}
	p := &parser{toks: toks}
	st := &Stmt{}

	if err := p.expectIdent("SELECT"); err != nil {
		return nil, err
	}
	st.AllObjects, st.TargetOID, err = p.sel()
	if err != nil {
		return nil, err
	}
	if err := p.expectIdent("FROM"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("MOD"); err != nil {
		return nil, err
	}
	if err := p.expectIdent("WHERE"); err != nil {
		return nil, err
	}

	q := p.next()
	if q.kind != tokIdent {
		return nil, p.errf("expected quantifier, got %q", q.text)
	}
	switch q.text {
	case "EXISTS":
		st.Quant = QuantExists
		if err := p.window(st); err != nil {
			return nil, err
		}
	case "FORALL":
		st.Quant = QuantForAll
		if err := p.window(st); err != nil {
			return nil, err
		}
	case "ATLEAST":
		st.Quant = QuantAtLeast
		pct, err := p.number()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("%"); err != nil {
			return nil, err
		}
		if pct < 0 || pct > 100 {
			return nil, fmt.Errorf("%w: percentage %g out of [0, 100]", ErrParse, pct)
		}
		st.Percent = pct / 100
		if err := p.window(st); err != nil {
			return nil, err
		}
	case "AT":
		st.Quant = QuantAt
		if err := p.expectIdent("TIME"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		tf, err := p.number()
		if err != nil {
			return nil, err
		}
		st.FixedT = tf
		if err := p.expectIdent("WITHIN"); err != nil {
			return nil, err
		}
		if err := p.bracketWindow(st); err != nil {
			return nil, err
		}
	default:
		return nil, p.errf("unknown quantifier %q", q.text)
	}

	if err := p.expectIdent("AND"); err != nil {
		return nil, err
	}
	if err := p.prob(st); err != nil {
		return nil, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "AND" {
		p.next()
		if err := p.tagClause(st); err != nil {
			return nil, err
		}
	}
	if t := p.next(); t.kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input %q (offset %d)", ErrParse, t.text, t.pos)
	}
	if st.Te <= st.Tb {
		return nil, fmt.Errorf("%w: empty window [%g, %g]", ErrParse, st.Tb, st.Te)
	}
	if st.Quant == QuantAt && (st.FixedT < st.Tb || st.FixedT > st.Te) {
		return nil, fmt.Errorf("%w: fixed time %g outside window [%g, %g]", ErrParse, st.FixedT, st.Tb, st.Te)
	}
	return st, nil
}

// window parses `Time IN [a, b]`.
func (p *parser) window(st *Stmt) error {
	if err := p.expectIdent("TIME"); err != nil {
		return err
	}
	if err := p.expectIdent("IN"); err != nil {
		return err
	}
	return p.bracketWindow(st)
}

// bracketWindow parses `[a, b]`.
func (p *parser) bracketWindow(st *Stmt) error {
	if err := p.expectPunct("["); err != nil {
		return err
	}
	a, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expectPunct(","); err != nil {
		return err
	}
	b, err := p.number()
	if err != nil {
		return err
	}
	if err := p.expectPunct("]"); err != nil {
		return err
	}
	st.Tb, st.Te = a, b
	return nil
}

// prob parses the probability predicate.
func (p *parser) prob(st *Stmt) error {
	t := p.next()
	if t.kind != tokIdent ||
		(t.text != "PROBABILITYNN" && t.text != "PROBABILITYKNN" && t.text != "CERTAINNN") {
		return fmt.Errorf("%w: expected ProbabilityNN/ProbabilityKNN/CertainNN, got %q (offset %d)", ErrParse, t.text, t.pos)
	}
	ranked := t.text == "PROBABILITYKNN"
	st.Certain = t.text == "CERTAINNN"
	if err := p.expectPunct("("); err != nil {
		return err
	}
	all, oid, err := p.sel()
	if err != nil {
		return err
	}
	if all != st.AllObjects || (!all && oid != st.TargetOID) {
		return fmt.Errorf("%w: predicate target must match SELECT target", ErrParse)
	}
	if err := p.expectPunct(","); err != nil {
		return err
	}
	st.QueryOID, err = p.intLit()
	if err != nil {
		return err
	}
	if err := p.expectPunct(","); err != nil {
		return err
	}
	if err := p.expectIdent("TIME"); err != nil {
		return err
	}
	if ranked {
		if err := p.expectPunct(","); err != nil {
			return err
		}
		k, err := p.intLit()
		if err != nil {
			return err
		}
		if k < 1 {
			return fmt.Errorf("%w: rank %d must be >= 1", ErrParse, k)
		}
		st.Rank = int(k)
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.expectPunct(">"); err != nil {
		return err
	}
	thr, err := p.number()
	if err != nil {
		return err
	}
	if thr < 0 || thr >= 1 {
		return fmt.Errorf("%w: threshold %g must be in [0, 1)", ErrParse, thr)
	}
	if thr > 0 && ranked {
		return fmt.Errorf("%w: positive thresholds are not supported with ProbabilityKNN", ErrParse)
	}
	if thr > 0 && st.Certain {
		return fmt.Errorf("%w: CertainNN takes no probability threshold (use `> 0`)", ErrParse)
	}
	st.Threshold = thr
	return nil
}

// tagClause parses one `TAGS CONTAINS mode ( 'a', 'b', ... )` clause into
// st.Where. ALL and NONE clauses union; a second ANY clause is an error.
func (p *parser) tagClause(st *Stmt) error {
	if err := p.expectIdent("TAGS"); err != nil {
		return err
	}
	if err := p.expectIdent("CONTAINS"); err != nil {
		return err
	}
	mode := p.next()
	if mode.kind != tokIdent || (mode.text != "ALL" && mode.text != "ANY" && mode.text != "NONE") {
		return fmt.Errorf("%w: expected ALL/ANY/NONE, got %q (offset %d)", ErrParse, mode.text, mode.pos)
	}
	raw, err := p.tagList()
	if err != nil {
		return err
	}
	tags, err := textidx.CanonTags(raw)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrParse, err)
	}
	if st.Where == nil {
		st.Where = &textidx.Predicate{}
	}
	switch mode.text {
	case "ALL":
		st.Where.All, err = unionTags(st.Where.All, tags)
	case "NONE":
		st.Where.Not, err = unionTags(st.Where.Not, tags)
	default:
		if st.Where.Any != nil {
			return fmt.Errorf("%w: at most one TAGS CONTAINS ANY clause", ErrParse)
		}
		st.Where.Any = tags
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrParse, err)
	}
	return nil
}

// tagList parses `( 'a', 'b', ... )` — at least one literal.
func (p *parser) tagList() ([]string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		t := p.next()
		if t.kind != tokString {
			return nil, fmt.Errorf("%w: expected quoted tag, got %q (offset %d)", ErrParse, t.text, t.pos)
		}
		out = append(out, t.text)
		sep := p.next()
		if sep.kind == tokPunct && sep.text == ")" {
			return out, nil
		}
		if sep.kind != tokPunct || sep.text != "," {
			return nil, fmt.Errorf("%w: expected ',' or ')', got %q (offset %d)", ErrParse, sep.text, sep.pos)
		}
	}
}

// unionTags merges two canonical tag sets, keeping the result canonical.
// Both inputs already canonicalized, so the only possible failure is the
// merged set overflowing the MaxTags cap.
func unionTags(a, b []string) ([]string, error) {
	return textidx.CanonTags(append(append([]string(nil), a...), b...))
}

// String renders the statement back to canonical UQL (parse ∘ String is
// the identity on the AST).
func (st *Stmt) String() string {
	sel := "T"
	if !st.AllObjects {
		sel = strconv.FormatInt(st.TargetOID, 10)
	}
	var quant string
	switch st.Quant {
	case QuantExists:
		quant = fmt.Sprintf("EXISTS Time IN [%g, %g]", st.Tb, st.Te)
	case QuantForAll:
		quant = fmt.Sprintf("FORALL Time IN [%g, %g]", st.Tb, st.Te)
	case QuantAtLeast:
		quant = fmt.Sprintf("ATLEAST %g%% Time IN [%g, %g]", st.Percent*100, st.Tb, st.Te)
	case QuantAt:
		quant = fmt.Sprintf("AT Time = %g WITHIN [%g, %g]", st.FixedT, st.Tb, st.Te)
	}
	var pred string
	switch {
	case st.Certain:
		pred = fmt.Sprintf("CertainNN(%s, %d, Time) > 0", sel, st.QueryOID)
	case st.Rank > 0:
		pred = fmt.Sprintf("ProbabilityKNN(%s, %d, Time, %d) > 0", sel, st.QueryOID, st.Rank)
	default:
		pred = fmt.Sprintf("ProbabilityNN(%s, %d, Time) > %g", sel, st.QueryOID, st.Threshold)
	}
	out := fmt.Sprintf("SELECT %s FROM MOD WHERE %s AND %s", sel, quant, pred)
	if st.Where != nil {
		for _, clause := range []struct {
			mode string
			tags []string
		}{{"ALL", st.Where.All}, {"ANY", st.Where.Any}, {"NONE", st.Where.Not}} {
			if len(clause.tags) == 0 {
				continue
			}
			out += fmt.Sprintf(" AND TAGS CONTAINS %s ('%s')", clause.mode, strings.Join(clause.tags, "', '"))
		}
	}
	return out
}
