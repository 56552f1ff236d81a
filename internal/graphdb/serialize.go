package graphdb

import (
	"encoding/json"
	"io"
)

// This file implements graph export: the artifact stores MDGs in a
// graph database on disk; here the property graph serializes to a
// stable JSON document (graphjs -export-db).

type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Rels  []jsonRel  `json:"rels"`
}

type jsonNode struct {
	ID     int64            `json:"id"`
	Labels []string         `json:"labels"`
	Props  map[string]Value `json:"props,omitempty"`
}

type jsonRel struct {
	ID    int64            `json:"id"`
	From  int64            `json:"from"`
	To    int64            `json:"to"`
	Type  string           `json:"type"`
	Props map[string]Value `json:"props,omitempty"`
}

// ExportJSON writes the whole graph as JSON.
func (db *DB) ExportJSON(w io.Writer) error {
	out := jsonGraph{Nodes: []jsonNode{}, Rels: []jsonRel{}}
	for _, n := range db.AllNodes() {
		out.Nodes = append(out.Nodes, jsonNode{
			ID: int64(n.ID), Labels: n.Labels, Props: n.Props,
		})
	}
	for _, n := range db.AllNodes() {
		for _, r := range db.Out(n.ID) {
			out.Rels = append(out.Rels, jsonRel{
				ID: r.ID, From: int64(r.From), To: int64(r.To),
				Type: r.Type, Props: r.Props,
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
