package mdg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unsafe"
)

// Graph codec
//
// AppendGraph gives a graph a compact binary form — the fragment codec
// of the persistent store (internal/store) and of the incremental
// scanner's in-memory cache alike: varint-packed nodes and edges,
// strings length-prefixed, one format version byte up front. The
// encoding is exact, so a warm restart rehydrates byte-for-byte the
// graphs a live process would have held, and a graph decoded from it
// encodes back to the same bytes.
//
// (*Graph).Stitch decodes an encoding straight into a graph, after the
// locations the graph already holds: a scan stitches several encoded
// fragments into one graph, or decodes one fragment into a recycled
// graph, with no intermediate copy. Stitch trusts nothing: it is
// handed bytes that passed a CRC but could still be hostile (a store
// bug, a format drift), so every count is bounded by the remaining
// input, every location is checked against the fragment's node count
// before it is used, and any violation is an error, never a panic or a
// graph with a dangling reference. The checks are integer comparisons
// on values the decode reads anyway, so bytes the process encoded
// itself pay almost nothing for them. Callers treat a decode error on
// a stored record as a cache miss (quarantine + cold rebuild).

// fragCodecVersion is the fragment wire-format version.
const fragCodecVersion = 1

// ErrFragmentCodec wraps every Stitch decode failure.
var ErrFragmentCodec = errors.New("mdg: fragment decode")

// Shift moves a fragment-local location by a stitch offset (see
// Stitch), keeping NoLoc absent.
func (l Loc) Shift(offset Loc) Loc {
	if l == NoLoc {
		return NoLoc
	}
	return l + offset
}

// AppendGraph appends g's encoding to buf: its nodes in ascending
// location order, its edges by source location then insertion order
// (Edges), and its largest location.
func AppendGraph(buf []byte, g *Graph) []byte {
	nodes := g.Nodes()
	buf = append(buf, fragCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	for _, n := range nodes {
		buf = binary.AppendUvarint(buf, uint64(n.Loc))
		buf = append(buf, byte(n.Kind))
		buf = AppendString(buf, n.Label)
		buf = binary.AppendUvarint(buf, uint64(n.Site))
		buf = binary.AppendUvarint(buf, uint64(n.Line))
		buf = AppendString(buf, n.File)
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
		buf = AppendString(buf, n.CallName)
		if n.CallArgs != nil {
			buf = binary.AppendUvarint(buf, uint64(len(n.CallArgs)))
			for _, arg := range n.CallArgs {
				buf = AppendLocs(buf, arg)
			}
		}
		buf = AppendString(buf, n.FuncName)
		buf = AppendLocs(buf, n.ParamLocs)
		buf = binary.AppendUvarint(buf, uint64(n.RetLoc))
	}
	buf = binary.AppendUvarint(buf, uint64(g.numEdges))
	for _, es := range g.out {
		for _, e := range es {
			buf = binary.AppendUvarint(buf, uint64(e.From))
			buf = binary.AppendUvarint(buf, uint64(e.To))
			buf = append(buf, byte(e.Type))
			buf = AppendString(buf, e.Prop)
		}
	}
	var maxLoc Loc
	if len(nodes) > 0 {
		maxLoc = nodes[len(nodes)-1].Loc
	}
	return binary.AppendUvarint(buf, uint64(maxLoc))
}

// Stitch decodes an encoded graph (AppendGraph) into g, renumbering its
// locations so they never collide with the ones g holds: the
// fragment's location l becomes l.Shift(offset), offset being g's
// location count before the call. Callers translate fragment-local
// facts (function summaries, sources, witness paths) into g the same
// way. Stitching is deterministic in the order fragments are given.
//
// The encoding must describe a graph as graphs number their nodes:
// densely from 1, each location once, every reference (edge endpoint,
// call argument, parameter, return) naming one of its nodes or NoLoc
// where permitted. Anything else is an error wrapping ErrFragmentCodec
// that leaves g partly filled, to be released. The nodes' strings
// share data's bytes, so data must never change afterwards.
func (g *Graph) Stitch(data []byte) (offset Loc, err error) {
	// The decode threads (b, off) through the inlinable readers below;
	// an offset past len(b) marks input that ran out or held a
	// malformed varint, and sticks.
	b, off := data, 0
	fail := func(format string, args ...any) (Loc, error) {
		return offset, fmt.Errorf("%w: "+format, append([]any{ErrFragmentCodec}, args...)...)
	}
	var c byte
	if c, off = byteAt(b, off); off > len(b) {
		return fail("truncated")
	} else if c != fragCodecVersion {
		return fail("version %d (want %d)", c, fragCodecVersion)
	}
	offset = g.next
	v, off := uvarintAt(b, off)
	if off > len(b) || v > uint64(len(b)-off)/minNodeBytes+1 {
		return fail("implausible node count")
	}
	nn := int(v)
	top := Loc(nn)
	g.grow(offset + top)
	for i := 0; i < nn; i++ {
		v, off = uvarintAt(b, off)
		if v == 0 || v > uint64(top) {
			return fail("node %d: location %d exceeds node count %d", i, v, nn)
		}
		l := Loc(v) + offset
		if g.nodes[l] != nil {
			return fail("duplicate location %d", v)
		}
		n := g.carve()
		*n = Node{Loc: l}
		c, off = byteAt(b, off)
		n.Kind = NodeKind(c)
		n.Label, off = strAt(b, off)
		v, off = uvarintAt(b, off)
		n.Site = int(v)
		v, off = uvarintAt(b, off)
		n.Line = int(v)
		n.File, off = strAt(b, off)
		c, off = byteAt(b, off) // flags
		n.Source, n.Exported = c&1 != 0, c&2 != 0
		n.CallName, off = strAt(b, off)
		if c&4 != 0 {
			v, off = uvarintAt(b, off)
			if off > len(b) || v > uint64(len(b)-off)+1 {
				return fail("node %d: implausible argument count", i)
			}
			n.CallArgs = make([][]Loc, v)
			for j := range n.CallArgs {
				n.CallArgs[j], off = g.locsAt(b, off, top, offset, nn)
			}
		}
		n.FuncName, off = strAt(b, off)
		n.ParamLocs, off = g.locsAt(b, off, top, offset, nn)
		v, off = uvarintAt(b, off)
		n.RetLoc = Loc(v).Shift(offset)
		g.place(n)
		if off > len(b) || v > uint64(top) {
			return fail("node %d: truncated, or a dangling location", i)
		}
	}
	v, off = uvarintAt(b, off)
	if off > len(b) || v > uint64(len(b)-off)/minEdgeBytes+1 {
		return fail("implausible edge count")
	}
	for ne := v; ne > 0; ne-- {
		var from, to uint64
		from, off = uvarintAt(b, off)
		to, off = uvarintAt(b, off)
		c, off = byteAt(b, off)
		e := Edge{Type: EdgeType(c)}
		e.Prop, off = strAt(b, off)
		if off > len(b) {
			return fail("truncated edge")
		}
		if from == 0 || to == 0 || from > uint64(top) || to > uint64(top) {
			return fail("edge %d->%d references missing node", from, to)
		}
		e.From, e.To = Loc(from)+offset, Loc(to)+offset
		if !g.HasEdge(e) {
			g.link(e)
		}
	}
	// nn distinct locations in 1..nn fill every slot, so the largest is
	// nn; any other recorded maximum is a malformed graph.
	if v, off = uvarintAt(b, off); off > len(b) {
		return fail("truncated")
	} else if v != uint64(nn) {
		return fail("maxLoc %d is not the node count %d", v, nn)
	} else if off != len(b) {
		return fail("%d trailing bytes", len(b)-off)
	}
	g.next = max(g.next, offset+top)
	return offset, nil
}

// uvarintAt decodes the unsigned varint at b[off:], returning it and
// the offset after it; a truncated or overlong varint, or an off
// already past len(b), returns len(b)+1.
func uvarintAt(b []byte, off int) (x uint64, next int) {
	var s uint
	for i := off; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if s == 63 && c > 1 {
				break
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		if s += 7; s > 63 {
			break
		}
	}
	return 0, len(b) + 1
}

// byteAt reads the byte at b[off] as uvarintAt reads a varint.
func byteAt(b []byte, off int) (byte, int) {
	if off < len(b) {
		return b[off], off + 1
	}
	return 0, len(b) + 1
}

// strAt reads a string written by AppendString as uvarintAt reads a
// varint, sharing b's bytes.
func strAt(b []byte, off int) (string, int) {
	n, off := uvarintAt(b, off)
	if off > len(b) || n > uint64(len(b)-off) {
		return "", len(b) + 1
	}
	if n == 0 {
		return "", off
	}
	return unsafe.String(&b[off], int(n)), off + int(n)
}

// locsAt reads a location list written by AppendLocs as uvarintAt
// reads a varint, each location at most top and then shifted by
// offset. The list is carved from g.locs, grown by at least nn at a
// time; a dangling location fails the read.
func (g *Graph) locsAt(b []byte, off int, top, offset Loc, nn int) ([]Loc, int) {
	n, off := uvarintAt(b, off)
	if n == 0 || off > len(b) {
		return nil, off
	}
	if n > uint64(len(b)-off) {
		return nil, len(b) + 1
	}
	k := int(n)
	if len(g.locs)+k > cap(g.locs) {
		g.locs = make([]Loc, 0, max(k, nn, 2*cap(g.locs)))
	}
	out := g.locs[len(g.locs) : len(g.locs)+k : len(g.locs)+k]
	g.locs = g.locs[:len(g.locs)+k]
	for i := range out {
		var v uint64
		if v, off = uvarintAt(b, off); v > uint64(top) {
			return nil, len(b) + 1
		}
		out[i] = Loc(v).Shift(offset)
	}
	return out, off
}

// Minimum encoded sizes, used to bound declared counts by the input
// that could actually hold them (so a corrupt count cannot drive a
// huge allocation).
const (
	minNodeBytes = 10
	minEdgeBytes = 4
)

// AppendString writes a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool writes a bool as one byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendLocs writes a location slice; nil and empty both encode as a
// zero count and decode back to nil.
func AppendLocs(buf []byte, ls []Loc) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ls)))
	for _, l := range ls {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	return buf
}

// Reader is the bounds-checked sticky-error decoder of the fragment
// codec and of the scanner's persisted entries. After the first failure
// every method returns zero values, so decode loops terminate without
// per-call error plumbing; Err and Close report the failure.
type Reader struct {
	b   []byte
	off int
	err error
	// alias makes Str share b's bytes instead of copying them.
	alias bool
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// NewAliasReader returns a reader over data whose strings share data's
// bytes, so reading them allocates nothing. data must never change
// while any string read from it lives.
func NewAliasReader(data []byte) *Reader { return &Reader{b: data, alias: true} }

// Fail records msg (with the current offset) unless a failure is
// already recorded, and skips the rest of the input, so every later
// read returns a zero value.
func (r *Reader) Fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("%s at offset %d", msg, r.off)
	}
	r.off = len(r.b)
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread input.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// Close returns the first failure, or an error when input is left
// unread.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.Fail("truncated")
	return 0
}

// Bool reads a byte written by AppendBool.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, off := uvarintAt(r.b, r.off)
	if off > len(r.b) {
		r.Fail("bad varint")
		return 0
	}
	r.off = off
	return v
}

// Count reads a declared element count and rejects any value the
// remaining input could not possibly hold (minBytes per element), so a
// corrupt count cannot drive a huge allocation.
func (r *Reader) Count(minBytes int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(minBytes)+1 {
		r.Fail(fmt.Sprintf("implausible count %d", v))
		return 0
	}
	return int(v)
}

// Str reads a string written by AppendString.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.Fail("string overruns input")
		return ""
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if r.alias && n > 0 {
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// Loc reads a location. Zero (NoLoc) is legal on the wire; callers
// validate references where it matters (Stitch checks every one).
func (r *Reader) Loc() Loc { return Loc(r.Uvarint()) }

// Locs reads a slice written by AppendLocs.
func (r *Reader) Locs() []Loc {
	n := r.Count(1)
	if n == 0 || r.err != nil {
		return nil
	}
	out := make([]Loc, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.Loc())
	}
	return out
}
