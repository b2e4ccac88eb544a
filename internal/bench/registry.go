package bench

import (
	"fmt"
	"sort"
)

// experiments maps experiment IDs (dbbench -experiment <id>) to runners;
// the per-experiment index in DESIGN.md mirrors this table. A runner gets
// an Env with its defaults filled in and returns the table it built; Run
// prints it.
var experiments = map[string]func(Env) (*Table, error){
	"fig1":                 runFig1,
	"fig4":                 runFig4,
	"fig5":                 runFig5,
	"fig6":                 runFig6,
	"fig7":                 runFig7,
	"fig8":                 runFig8,
	"fig12":                runFig12,
	"table2":               runTable2,
	"fig13":                runFig13,
	"fig14":                runFig14,
	"fig15":                runFig15,
	"fig16":                runFig16,
	"fig17":                runFig17,
	"fig18":                runFig18,
	"fig20":                runFig20,
	"fig21":                runFig21,
	"fig22":                runFig22,
	"fig23":                runFig23,
	"ablation-batch":       runAblationBatch,
	"ablation-cache":       runAblationCache,
	"ablation-direct-read": runAblationDirectRead,
	"ablation-partition":   runAblationPartition,
	"ablation-scan":        runAblationScan,
}

// Names returns the experiment IDs in stable order.
func Names() []string {
	out := make([]string, 0, len(experiments))
	for name := range experiments {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name.
func Run(name string, e Env) (*Table, error) {
	r, ok := experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	e = e.WithDefaults()
	tbl, err := r(e)
	if err == nil {
		tbl.Print(e.Out)
	}
	return tbl, err
}
