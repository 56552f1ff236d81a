package metrics

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/scanner"
)

const gitResetSrc = `
const { exec } = require('child_process');
function git_reset(config, op, branch_name, url) {
	var options = config[op];
	options[branch_name] = url;
	options.cmd = 'git reset HEAD~';
	exec(options.cmd + options.commit);
}
module.exports = git_reset;
`

// TestCountSourceSize pins Table 7's front-end counts for the paper's
// running example: the values the scanner reported when its front end
// built the CFGs. A file that does not parse counts nothing.
func TestCountSourceSize(t *testing.T) {
	got := CountSourceSize([]scanner.SourceFile{
		{Rel: "git_reset.js", Src: gitResetSrc},
		{Rel: "bad.js", Src: "var = broken"},
	})
	if want := (SourceSize{ASTNodes: 43, CFGNodes: 4, CFGEdges: 2}); got != want {
		t.Errorf("CountSourceSize = %+v, want %+v", got, want)
	}

	p := &dataset.Package{Name: "git_reset.js", Source: gitResetSrc}
	rows := WithSourceSizes([]PackageResult{{Package: p, TotalNodes: 23, TotalEdges: 26}})
	if rows[0].TotalNodes != 23+43+4 || rows[0].TotalEdges != 26+2 {
		t.Errorf("WithSourceSizes: %d nodes, %d edges", rows[0].TotalNodes, rows[0].TotalEdges)
	}
}
