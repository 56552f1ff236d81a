package queries

import (
	"encoding/json"
	"fmt"
	"os"
)

// CWE identifies a vulnerability class.
type CWE string

// The vulnerability classes detected by Graph.js (paper §2.2).
const (
	CWEPathTraversal      CWE = "CWE-22"   // path traversal
	CWECommandInjection   CWE = "CWE-78"   // OS command injection
	CWECodeInjection      CWE = "CWE-94"   // arbitrary code execution
	CWEPrototypePollution CWE = "CWE-1321" // prototype pollution
)

// AllCWEs lists the supported classes in report order.
var AllCWEs = []CWE{CWEPathTraversal, CWECommandInjection, CWECodeInjection, CWEPrototypePollution}

// DefaultMaxHops is the taint-search hop bound applied when a
// configuration leaves MaxHops unset. Searches cut short by the bound
// are counted in LoadedGraph.Truncated (and the native engine's
// equivalent) so the under-approximation is observable.
const DefaultMaxHops = 64

// Sink declares one unsafe sink function: its dotted name and the
// indices of sensitive arguments.
type Sink struct {
	CWE  CWE    `json:"cwe"`
	Name string `json:"name"`
	Args []int  `json:"args"`
}

// Config is the scanner's sink/source configuration. The sink list is
// settable dynamically via a JSON file (paper §4: "the list of Sinks
// considered by Graph.js can be set dynamically via a configuration
// file").
type Config struct {
	Sinks []Sink `json:"sinks"`
	// Sanitizers lists functions whose results are considered clean:
	// taint paths passing through a call to one of these names are not
	// reported. This implements the §6 extension ("the query can also
	// be extended to not report program-specific sanitization
	// functions, reducing false positives").
	Sanitizers []string `json:"sanitizers"`
	// MaxHops bounds taint-path searches.
	MaxHops int `json:"maxHops"`
	// RequireAsCodeInjection treats require(dynamic) as a CWE-94 sink
	// (the paper's Collected-dataset configuration; a major FP source,
	// §5.3).
	RequireAsCodeInjection bool `json:"requireAsCodeInjection"`
}

// IsSanitizer reports whether a callee path matches a configured
// sanitizer (same suffix matching as sinks).
func (c *Config) IsSanitizer(calleeName string) bool {
	for _, s := range c.Sanitizers {
		if MatchSink(calleeName, s) {
			return true
		}
	}
	return false
}

// DefaultConfig returns the sink set used throughout the evaluation,
// mirroring the sinks named in the paper (§4).
func DefaultConfig() *Config {
	return &Config{
		MaxHops: DefaultMaxHops,
		Sinks: []Sink{
			// Command injection (CWE-78).
			{CWE: CWECommandInjection, Name: "exec", Args: []int{0}},
			{CWE: CWECommandInjection, Name: "execSync", Args: []int{0}},
			{CWE: CWECommandInjection, Name: "child_process.spawn", Args: []int{0, 1}},
			{CWE: CWECommandInjection, Name: "spawnSync", Args: []int{0, 1}},
			{CWE: CWECommandInjection, Name: "child_process.execFile", Args: []int{0, 1}},
			{CWE: CWECommandInjection, Name: "execFileSync", Args: []int{0, 1}},
			// Code injection (CWE-94).
			{CWE: CWECodeInjection, Name: "eval", Args: []int{0}},
			{CWE: CWECodeInjection, Name: "Function", Args: []int{0, 1, 2}},
			{CWE: CWECodeInjection, Name: "vm.runInContext", Args: []int{0}},
			{CWE: CWECodeInjection, Name: "vm.runInNewContext", Args: []int{0}},
			{CWE: CWECodeInjection, Name: "vm.runInThisContext", Args: []int{0}},
			{CWE: CWECodeInjection, Name: "setTimeout", Args: []int{0}},
			{CWE: CWECodeInjection, Name: "setInterval", Args: []int{0}},
			// Path traversal (CWE-22).
			{CWE: CWEPathTraversal, Name: "fs.readFile", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.readFileSync", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.writeFile", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.writeFileSync", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.createReadStream", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.createWriteStream", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.appendFile", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.appendFileSync", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.unlink", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.unlinkSync", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.readdir", Args: []int{0}},
			{CWE: CWEPathTraversal, Name: "fs.readdirSync", Args: []int{0}},
		},
	}
}

// sharedDefault is DefaultConfig built once, for the callers that
// resolve a nil config and only read it.
var sharedDefault = DefaultConfig()

// OrDefault returns cfg, or for a nil cfg the default configuration
// shared by every such caller. The shared default must not be
// modified; a caller that mutates its config starts from
// DefaultConfig, which returns a fresh copy.
func OrDefault(cfg *Config) *Config {
	if cfg == nil {
		return sharedDefault
	}
	return cfg
}

// LoadConfig reads a JSON configuration file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("queries: reading config: %w", err)
	}
	cfg := &Config{}
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("queries: parsing config: %w", err)
	}
	if cfg.MaxHops <= 0 {
		cfg.MaxHops = DefaultMaxHops
	}
	return cfg, nil
}

// MatchSink reports whether a call with the source-level callee path
// calleeName matches sink name. Matching is by dotted-path suffix:
// "exec" matches both `exec(...)` and `cp.exec(...)`;
// "fs.readFile" matches `fs.readFile(...)` and `require('fs').readFile`.
func MatchSink(calleeName, sinkName string) bool {
	if calleeName == sinkName {
		return true
	}
	// The sink's dotted segments must be the callee's trailing ones:
	// a proper suffix starting right after a dot.
	i := len(calleeName) - len(sinkName)
	return i > 0 && calleeName[i-1] == '.' && calleeName[i:] == sinkName
}

// requireSink is the CWE-94 sink RequireAsCodeInjection adds.
var requireSink = Sink{CWE: CWECodeInjection, Name: "require", Args: []int{0}}

// SinksFor returns the sinks of one class.
func (c *Config) SinksFor(cwe CWE) []Sink {
	var out []Sink
	for _, s := range c.Sinks {
		if s.CWE == cwe {
			out = append(out, s)
		}
	}
	if cwe == CWECodeInjection && c.RequireAsCodeInjection {
		out = append(out, requireSink)
	}
	return out
}

// SinkFor returns the first sink of SinksFor(cwe) that a call with
// callee path calleeName matches (see MatchSink), or nil. It matches
// over the configuration in place; the sink returned must not be
// modified.
func (c *Config) SinkFor(cwe CWE, calleeName string) *Sink {
	for i := range c.Sinks {
		if c.Sinks[i].CWE == cwe && MatchSink(calleeName, c.Sinks[i].Name) {
			return &c.Sinks[i]
		}
	}
	if cwe == CWECodeInjection && c.RequireAsCodeInjection && MatchSink(calleeName, requireSink.Name) {
		return &requireSink
	}
	return nil
}
