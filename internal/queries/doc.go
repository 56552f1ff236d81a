// Package queries implements Graph.js's vulnerability detection layer
// (paper §4): the MDG is loaded into the embedded graph database
// (Load) and the Table 1 base traversals / Table 2 vulnerability
// queries are run against it (Detect). It is the "query" detection
// backend selected by scanner.Options.Engine; the native backend
// (internal/taint) answers the same questions without the database
// load, and differential mode cross-checks the two.
//
// The package also owns the detection configuration shared by every
// backend: Config carries the sink lists, sanitizers, and the MaxHops
// search bound (DefaultMaxHops), loaded from JSON so new taint-style
// classes are configuration, not code (§6). A Config is never written
// after construction, so one instance may be shared by concurrent
// scans; each Load call builds its own database instance. The
// detectors' query texts are parsed once per process and the parsed
// queries are likewise shared read-only (compiled.go).
package queries
