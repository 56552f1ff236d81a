package mdg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Fragment codec
//
// EncodeFragment/DecodeFragment give fragments a compact binary wire
// form for the persistent store (internal/store): varint-packed nodes
// and edges, strings length-prefixed, one format version byte up
// front. The encoding is exact — a decoded fragment is deeply equal to
// the encoded one, including the nil-versus-empty slice distinctions
// SnapshotFragment produces — so a warm restart rehydrates byte-for-
// byte the graphs a live process would have held.
//
// DecodeFragment trusts nothing: it is routinely handed bytes that
// passed a CRC but could still be hostile (a store bug, a format
// drift), so every count is bounded by the remaining input, every
// location is validated against the node table, and any violation is
// an error, never a panic or a silently wrong graph. Callers treat a
// decode error as a cache miss (quarantine + cold rebuild).

// fragCodecVersion is the fragment wire-format version.
const fragCodecVersion = 1

// ErrFragmentCodec wraps every DecodeFragment failure.
var ErrFragmentCodec = errors.New("mdg: fragment decode")

// EncodeFragment serializes f into its compact binary form.
func EncodeFragment(f *Fragment) []byte {
	// Rough pre-size: nodes dominate; 32 bytes is a comfortable mean.
	buf := make([]byte, 0, 16+32*len(f.nodes)+8*len(f.edges))
	buf = append(buf, fragCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(f.nodes)))
	for i := range f.nodes {
		n := &f.nodes[i]
		buf = binary.AppendUvarint(buf, uint64(n.Loc))
		buf = append(buf, byte(n.Kind))
		buf = appendString(buf, n.Label)
		buf = binary.AppendUvarint(buf, uint64(n.Site))
		buf = binary.AppendUvarint(buf, uint64(n.Line))
		buf = appendString(buf, n.File)
		var flags byte
		if n.Source {
			flags |= 1
		}
		if n.Exported {
			flags |= 2
		}
		if n.CallArgs != nil {
			flags |= 4
		}
		buf = append(buf, flags)
		buf = appendString(buf, n.CallName)
		if n.CallArgs != nil {
			buf = binary.AppendUvarint(buf, uint64(len(n.CallArgs)))
			for _, arg := range n.CallArgs {
				buf = appendLocs(buf, arg)
			}
		}
		buf = appendString(buf, n.FuncName)
		buf = appendLocs(buf, n.ParamLocs)
		buf = binary.AppendUvarint(buf, uint64(n.RetLoc))
	}
	buf = binary.AppendUvarint(buf, uint64(len(f.edges)))
	for _, e := range f.edges {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = append(buf, byte(e.Type))
		buf = appendString(buf, e.Prop)
	}
	buf = binary.AppendUvarint(buf, uint64(f.maxLoc))
	return buf
}

// DecodeFragment parses data back into a fragment, validating the
// graph's internal consistency (edge endpoints and location references
// must name nodes in the fragment). Corrupt or truncated input returns
// an error wrapping ErrFragmentCodec.
func DecodeFragment(data []byte) (*Fragment, error) {
	r := &fragReader{b: data}
	if v := r.byte(); r.err == nil && v != fragCodecVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrFragmentCodec, v, fragCodecVersion)
	}
	f := &Fragment{}
	nn := r.count(minNodeBytes)
	// SnapshotFragment always allocates the node slice (empty, not
	// nil, for an empty graph) but leaves edges nil when there are
	// none; mirror that so round trips are deeply equal.
	f.nodes = make([]Node, 0, nn)
	for i := 0; i < nn && r.err == nil; i++ {
		var n Node
		n.Loc = r.loc()
		n.Kind = NodeKind(r.byte())
		n.Label = r.string()
		n.Site = int(r.uvarint())
		n.Line = int(r.uvarint())
		n.File = r.string()
		flags := r.byte()
		n.Source = flags&1 != 0
		n.Exported = flags&2 != 0
		n.CallName = r.string()
		if flags&4 != 0 {
			na := r.count(1)
			n.CallArgs = make([][]Loc, 0, na)
			for j := 0; j < na && r.err == nil; j++ {
				n.CallArgs = append(n.CallArgs, r.locs())
			}
		}
		n.FuncName = r.string()
		n.ParamLocs = r.locs()
		n.RetLoc = r.loc0()
		f.nodes = append(f.nodes, n)
	}
	ne := r.count(minEdgeBytes)
	if ne > 0 {
		f.edges = make([]Edge, 0, ne)
	}
	for i := 0; i < ne && r.err == nil; i++ {
		var e Edge
		e.From = r.loc()
		e.To = r.loc()
		e.Type = EdgeType(r.byte())
		e.Prop = r.string()
		f.edges = append(f.edges, e)
	}
	f.maxLoc = r.loc0()
	if r.err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFragmentCodec, r.err)
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFragmentCodec, len(r.b)-r.off)
	}
	if err := validateFragment(f); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFragmentCodec, err)
	}
	return f, nil
}

// Minimum encoded sizes, used to bound declared counts by the input
// that could actually hold them (so a corrupt count cannot drive a
// huge allocation).
const (
	minNodeBytes = 10
	minEdgeBytes = 4
)

// validateFragment checks the decoded graph's internal consistency:
// locations are unique, positive and dense, maxLoc covers them, and every
// reference (edge endpoint, call argument, parameter, return) names a
// node of the fragment or NoLoc where permitted. Stitch and the
// detection backends assume exactly these invariants; enforcing them
// here means a corrupt record can never leak a malformed graph past
// the quarantine.
func validateFragment(f *Fragment) error {
	if f.maxLoc > Loc(len(f.nodes)) {
		// Graphs number their nodes densely from 1, and Stitch sizes
		// its tables by location.
		return fmt.Errorf("maxLoc %d exceeds node count %d", f.maxLoc, len(f.nodes))
	}
	locs := make(map[Loc]bool, len(f.nodes))
	for i := range f.nodes {
		n := &f.nodes[i]
		if n.Loc <= NoLoc {
			return fmt.Errorf("node %d: non-positive location %d", i, n.Loc)
		}
		if n.Loc > f.maxLoc {
			return fmt.Errorf("node location %d exceeds maxLoc %d", n.Loc, f.maxLoc)
		}
		if locs[n.Loc] {
			return fmt.Errorf("duplicate location %d", n.Loc)
		}
		locs[n.Loc] = true
	}
	ref := func(l Loc) error {
		if l != NoLoc && !locs[l] {
			return fmt.Errorf("dangling location %d", l)
		}
		return nil
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		for _, arg := range n.CallArgs {
			for _, l := range arg {
				if err := ref(l); err != nil {
					return err
				}
			}
		}
		for _, l := range n.ParamLocs {
			if err := ref(l); err != nil {
				return err
			}
		}
		if err := ref(n.RetLoc); err != nil {
			return err
		}
	}
	for _, e := range f.edges {
		if !locs[e.From] || !locs[e.To] {
			return fmt.Errorf("edge %d->%d references missing node", e.From, e.To)
		}
	}
	return nil
}

// LocSet returns the set of node locations in the fragment. The
// persistence layer uses it to validate that decoded companion data
// (function summaries) only references nodes the fragment actually
// holds.
func (f *Fragment) LocSet() map[Loc]bool {
	set := make(map[Loc]bool, len(f.nodes))
	for i := range f.nodes {
		set[f.nodes[i].Loc] = true
	}
	return set
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendLocs writes a location slice; nil and empty both encode as a
// zero count and decode back to nil, matching SnapshotFragment's
// append([]Loc(nil), ...) convention.
func appendLocs(buf []byte, ls []Loc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ls)))
	for _, l := range ls {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	return buf
}

// fragReader is a bounds-checked sticky-error decoder. After the first
// failure every method returns zero values, so decode loops terminate
// without per-call error plumbing.
type fragReader struct {
	b   []byte
	off int
	err error
}

func (r *fragReader) fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", msg, r.off)
	}
}

func (r *fragReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *fragReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// count reads a declared element count and rejects any value the
// remaining input could not possibly hold (minBytes per element).
func (r *fragReader) count(minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(minBytes)+1 {
		r.fail(fmt.Sprintf("implausible count %d", v))
		return 0
	}
	return int(v)
}

func (r *fragReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail("string overruns input")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// loc reads a location that must be meaningful (decode-time zero is
// legal wire-wise; validateFragment rejects it where it matters).
func (r *fragReader) loc() Loc { return Loc(r.uvarint()) }

// loc0 reads a location where NoLoc is legal.
func (r *fragReader) loc0() Loc { return Loc(r.uvarint()) }

func (r *fragReader) locs() []Loc {
	n := r.count(1)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]Loc, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, Loc(r.uvarint()))
	}
	return out
}
