package analysis

import (
	"repro/internal/mdg"
)

// Built-in function models. Graph.js models the JavaScript built-ins
// that matter for taint and shape propagation; unmodelled built-ins
// fall back to the generic call treatment (result depends on the
// arguments). Each model returns true when it fully handled the call.

// builtinCall dispatches on the source-level callee path (classified
// once, at lowering).
func (a *analyzer) builtinCall(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	switch o.call.builtin {
	case builtinObjectAssign:
		return a.builtinObjectAssign(o, e, cl, argLocs)
	case builtinJSONParse:
		return a.builtinJSONParse(o, e, cl, argLocs)
	case builtinObjectKeys:
		return a.builtinObjectKeys(o, e, cl, argLocs)
	case builtinArrayPush:
		return a.builtinArrayPush(o, e, cl, argLocs, thisLocs)
	case builtinConcat:
		return a.builtinConcat(o, e, cl, argLocs, thisLocs)
	}
	return false
}

// Object.assign(target, ...sources): every source's property values may
// become dynamic properties of target; the result is target.
func (a *analyzer) builtinObjectAssign(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	if len(argLocs) == 0 {
		return false
	}
	targets := argLocs[0]
	var srcVals []mdg.Loc
	var srcObjs []mdg.Loc
	for _, ls := range argLocs[1:] {
		srcObjs = append(srcObjs, ls...)
		for _, l := range ls {
			srcVals = append(srcVals, a.g.AllPropValues(l)...)
		}
	}
	// The merge is a dynamic update whose property names come from the
	// sources.
	site := a.site(o.idx)
	nl := a.g.NVStar(site, targets, srcObjs, o.ln)
	a.replaceVersions(e, targets, nl)
	out := targets
	if nl != mdg.NoLoc {
		for _, v := range srcVals {
			a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
		}
		// Unknown source properties: reads on the target may now return
		// anything the sources held, including properties not yet
		// materialized — a star property depending on the source
		// objects.
		for _, sv := range a.g.APStar(site, []mdg.Loc{nl}, srcObjs, o.ln) {
			for _, src := range srcObjs {
				a.g.AddDep(src, sv)
			}
		}
		// Result: the new version of the target.
		out = a.single(nl)
	}
	for _, l := range out {
		a.g.AddDep(l, cl)
	}
	a.set(e, o.x, out)
	return true
}

// JSON.parse(s): the result is a fresh object whose shape and every
// property are controlled by the string — the canonical way attacker
// data becomes a structured object.
func (a *analyzer) builtinJSONParse(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	obj := a.alloc(&o.call.objLoc, mdg.RoleObj, a.site(o.idx), "json", mdg.KindObject, o.x.name, o.ln)
	var deps []mdg.Loc
	if len(argLocs) > 0 {
		deps = argLocs[0]
	}
	for _, d := range deps {
		a.g.AddDep(d, obj)
	}
	// Its dynamic property carries the same dependencies, so lookups on
	// the parsed value stay tainted.
	star := a.g.APStar(a.site(o.idx), a.single(obj), deps, o.ln)
	for _, sv := range star {
		for _, d := range deps {
			a.g.AddDep(d, sv)
		}
	}
	a.g.AddDep(obj, cl)
	a.set(e, o.x, a.single(obj))
	return true
}

// Object.keys/values/entries(o): an array derived from o — its elements
// depend on the object (keys) or are the property values (values).
func (a *analyzer) builtinObjectKeys(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc) bool {
	arr := a.alloc(&o.call.objLoc, mdg.RoleObj, a.site(o.idx), "keys", mdg.KindObject, o.x.name, o.ln)
	if len(argLocs) > 0 {
		for _, ol := range argLocs[0] {
			a.g.AddDep(ol, arr)
			if o.call.name != "Object.keys" {
				for _, v := range a.g.AllPropValues(ol) {
					a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				}
			}
		}
	}
	a.g.AddDep(arr, cl)
	a.set(e, o.x, a.single(arr))
	return true
}

// arr.push(v)/unshift(v): a dynamic-property write of v on the
// receiver.
func (a *analyzer) builtinArrayPush(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	if len(thisLocs) == 0 || len(argLocs) == 0 {
		return false
	}
	nl := a.g.NVStar(a.site(o.idx), thisLocs, nil, o.ln)
	a.replaceVersions(e, thisLocs, nl)
	for _, ls := range argLocs {
		for _, v := range ls {
			a.g.AddEdge(mdg.Edge{From: nl, To: v, Type: mdg.PropStar})
			// Element data is part of the array value (joins, string
			// conversions), so the new version depends on the element
			// too.
			a.g.AddDep(v, nl)
		}
	}
	// push returns the new length; model as depending on the receiver.
	for _, tl := range thisLocs {
		a.g.AddDep(tl, cl)
	}
	a.set(e, o.x, a.single(cl))
	return true
}

// a.concat(b): a fresh array whose elements come from both operands.
func (a *analyzer) builtinConcat(o *op, e env, cl mdg.Loc, argLocs [][]mdg.Loc, thisLocs []mdg.Loc) bool {
	arr := a.alloc(&o.call.objLoc, mdg.RoleObj, a.site(o.idx), "concat", mdg.KindObject, o.x.name, o.ln)
	add := func(ls []mdg.Loc) {
		for _, l := range ls {
			a.g.AddDep(l, arr)
			for _, v := range a.g.AllPropValues(l) {
				a.g.AddEdge(mdg.Edge{From: arr, To: v, Type: mdg.PropStar})
				a.g.AddDep(v, arr)
			}
		}
	}
	add(thisLocs)
	for _, ls := range argLocs {
		add(ls)
	}
	a.g.AddDep(arr, cl)
	a.set(e, o.x, a.single(arr))
	return true
}
