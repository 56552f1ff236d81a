package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"
)

// Key returns the canonical key of a lowered program: a sha256 over
// its FileName, its MaxIndex and every statement — its type, its Meta
// (Idx, Ln, Col) and every field, recursively. Two programs share a key
// exactly when they are the same Core program, so everything computed
// from a program alone (dependency facts, the export pass, the MDG and
// detection over it) can be cached under its key. An edit that leaves
// the lowered program unchanged — a comment, trailing whitespace, a
// trailing blank line — keeps the key; one that shifts a statement's
// line or column does not.
//
// The encoding is prefix-free: every node starts with a type tag, and
// every string and list with its length. A statement or expression
// type defined outside this package is keyed by its %#v rendering.
func Key(p *Program) [sha256.Size]byte {
	var out [sha256.Size]byte
	k := keyers.Get().(*keyer)
	k.h.Reset()
	k.buf = k.buf[:0]
	k.str(p.FileName)
	k.int(p.MaxIndex)
	k.stmts(p.Body)
	k.h.Write(k.buf)
	k.h.Sum(out[:0])
	if cap(k.buf) <= 4*keyFlush { // a long string literal grew it: drop that
		keyers.Put(k)
	}
	return out
}

// keyFlush is the size at which the keyer hands its buffer to the hash.
const keyFlush = 4096

// keyers recycles the hash state and buffer of Key.
var keyers = sync.Pool{New: func() any {
	return &keyer{h: sha256.New(), buf: make([]byte, 0, keyFlush+64)}
}}

// Statement and expression tags. Zero is nil; tagForeign marks a type
// defined outside this package.
const (
	tagNil byte = iota
	tagAssign
	tagBinOp
	tagUnOp
	tagLookup
	tagDynLookup
	tagUpdate
	tagDynUpdate
	tagNewObj
	tagIf
	tagWhile
	tagForIn
	tagCall
	tagFuncDef
	tagReturn
	tagBreak
	tagContinue
	tagVar
	tagLit
	tagForeign byte = 0xff
)

// keyer appends the canonical encoding to buf, flushing it into h.
type keyer struct {
	h   hash.Hash
	buf []byte
}

func (k *keyer) tag(t byte) {
	if len(k.buf) >= keyFlush {
		k.h.Write(k.buf)
		k.buf = k.buf[:0]
	}
	k.buf = append(k.buf, t)
}

func (k *keyer) int(n int) { k.buf = binary.AppendVarint(k.buf, int64(n)) }

func (k *keyer) str(s string) {
	k.buf = binary.AppendUvarint(k.buf, uint64(len(s)))
	k.buf = append(k.buf, s...)
}

func (k *keyer) bool(b bool) {
	if b {
		k.buf = append(k.buf, 1)
	} else {
		k.buf = append(k.buf, 0)
	}
}

// head starts a statement: its tag and its Meta.
func (k *keyer) head(t byte, m Meta) {
	k.tag(t)
	k.int(m.Idx)
	k.int(m.Ln)
	k.int(m.Col)
}

func (k *keyer) stmts(ss []Stmt) {
	k.int(len(ss))
	for _, s := range ss {
		k.stmt(s)
	}
}

func (k *keyer) stmt(s Stmt) {
	switch st := s.(type) {
	case nil:
		k.tag(tagNil)
	case *Assign:
		k.head(tagAssign, st.Meta)
		k.str(st.X)
		k.expr(st.E)
	case *BinOp:
		k.head(tagBinOp, st.Meta)
		k.str(st.X)
		k.str(st.Op)
		k.expr(st.L)
		k.expr(st.R)
	case *UnOp:
		k.head(tagUnOp, st.Meta)
		k.str(st.X)
		k.str(st.Op)
		k.expr(st.E)
	case *Lookup:
		k.head(tagLookup, st.Meta)
		k.str(st.X)
		k.expr(st.Obj)
		k.str(st.Prop)
	case *DynLookup:
		k.head(tagDynLookup, st.Meta)
		k.str(st.X)
		k.expr(st.Obj)
		k.expr(st.Prop)
	case *Update:
		k.head(tagUpdate, st.Meta)
		k.expr(st.Obj)
		k.str(st.Prop)
		k.expr(st.Val)
	case *DynUpdate:
		k.head(tagDynUpdate, st.Meta)
		k.expr(st.Obj)
		k.expr(st.Prop)
		k.expr(st.Val)
	case *NewObj:
		k.head(tagNewObj, st.Meta)
		k.str(st.X)
	case *If:
		k.head(tagIf, st.Meta)
		k.expr(st.Cond)
		k.stmts(st.Then)
		k.stmts(st.Else)
	case *While:
		k.head(tagWhile, st.Meta)
		k.expr(st.Cond)
		k.stmts(st.Body)
	case *ForIn:
		k.head(tagForIn, st.Meta)
		k.str(st.Key)
		k.expr(st.Obj)
		k.stmts(st.Body)
		k.bool(st.Of)
	case *Call:
		k.head(tagCall, st.Meta)
		k.str(st.X)
		k.expr(st.Callee)
		k.str(st.CalleeName)
		k.expr(st.This)
		k.int(len(st.Args))
		for _, a := range st.Args {
			k.expr(a)
		}
		k.bool(st.IsNew)
	case *FuncDef:
		k.head(tagFuncDef, st.Meta)
		k.str(st.Name)
		k.int(len(st.Params))
		for _, p := range st.Params {
			k.str(p)
		}
		k.stmts(st.Body)
	case *Return:
		k.head(tagReturn, st.Meta)
		k.expr(st.E)
	case *Break:
		k.head(tagBreak, st.Meta)
	case *Continue:
		k.head(tagContinue, st.Meta)
	default:
		k.tag(tagForeign)
		k.str(fmt.Sprintf("%T %#v", s, s))
	}
}

func (k *keyer) expr(e Expr) {
	switch ex := e.(type) {
	case nil:
		k.tag(tagNil)
	case Var:
		k.tag(tagVar)
		k.str(ex.Name)
	case Lit:
		k.tag(tagLit)
		k.int(int(ex.Kind))
		k.str(ex.Value)
	default:
		k.tag(tagForeign)
		k.str(fmt.Sprintf("%T %#v", e, e))
	}
}
