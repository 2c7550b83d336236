package obs

import (
	"io"
	"strconv"
)

// DecisionCSV streams every decision as one row of the ledger CSV:
//
//	t_us,point,seq,stream,entity,chosen,preferred,ncand,chosen_cost_us,best_cost_us,regret_us,candidates
//
// The candidates column encodes the considered set as
// "proc:w:cost|proc:c:cost|…" (w = predicted warm, c = cold/displaced),
// comma-free so the row needs no quoting. Rows are hand-built into a
// reused scratch buffer like the event CSV sink; Record performs no
// steady-state allocation. Close flushes.
type DecisionCSV struct {
	writer
}

const decisionCSVHeader = "t_us,point,seq,stream,entity,chosen,preferred," +
	"ncand,chosen_cost_us,best_cost_us,regret_us,candidates\n"

// NewDecisionCSV returns a ledger sink writing rows (header included)
// to w.
func NewDecisionCSV(w io.Writer) *DecisionCSV {
	c := &DecisionCSV{newWriter(w, 256)}
	c.write(append(c.row, decisionCSVHeader...))
	return c
}

// appendCandidates encodes the candidate set into b.
func appendCandidates(b []byte, cands []Candidate) []byte {
	for i, cd := range cands {
		if i > 0 {
			b = append(b, '|')
		}
		b = strconv.AppendInt(b, int64(cd.Proc), 10)
		if cd.Warm {
			b = append(b, ":w:"...)
		} else {
			b = append(b, ":c:"...)
		}
		b = strconv.AppendFloat(b, cd.Cost, 'g', -1, 64)
	}
	return b
}

// RecordDecision implements DecisionRecorder.
func (c *DecisionCSV) RecordDecision(d Decision) {
	if !c.ok() {
		return
	}
	b := c.row[:0]
	b = strconv.AppendFloat(b, d.T, 'g', -1, 64)
	b = append(b, ',')
	b = append(b, d.Point.String()...)
	b = append(b, ',')
	b = strconv.AppendUint(b, d.Seq, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Stream), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Entity), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Chosen), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(d.Preferred), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(len(d.Candidates)), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, d.ChosenCost, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, d.BestCost, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, d.Regret(), 'g', -1, 64)
	b = append(b, ',')
	b = appendCandidates(b, d.Candidates)
	b = append(b, '\n')
	c.write(b)
}

// DecisionJSONL streams every decision as one JSON object per line
// (JSON Lines), for tools that prefer structure to columns:
//
//	{"t_us":12.5,"point":"place","seq":3,"stream":1,"entity":1,
//	 "chosen":2,"preferred":-1,"chosen_cost_us":284.3,"best_cost_us":284.3,
//	 "candidates":[{"proc":2,"warm":false,"cost_us":284.3}]}
//
// Records are hand-serialized into a reused buffer (every field is a
// number, bool or enum name — nothing needs escaping), so Record
// performs no steady-state allocation. Close flushes.
type DecisionJSONL struct {
	writer
}

// NewDecisionJSONL returns a JSON-lines ledger sink writing to w.
func NewDecisionJSONL(w io.Writer) *DecisionJSONL {
	return &DecisionJSONL{newWriter(w, 512)}
}

// RecordDecision implements DecisionRecorder.
func (c *DecisionJSONL) RecordDecision(d Decision) {
	if !c.ok() {
		return
	}
	b := c.row[:0]
	b = append(b, `{"t_us":`...)
	b = strconv.AppendFloat(b, d.T, 'g', -1, 64)
	b = append(b, `,"point":"`...)
	b = append(b, d.Point.String()...)
	b = append(b, `","seq":`...)
	b = strconv.AppendUint(b, d.Seq, 10)
	b = append(b, `,"stream":`...)
	b = strconv.AppendInt(b, int64(d.Stream), 10)
	b = append(b, `,"entity":`...)
	b = strconv.AppendInt(b, int64(d.Entity), 10)
	b = append(b, `,"chosen":`...)
	b = strconv.AppendInt(b, int64(d.Chosen), 10)
	b = append(b, `,"preferred":`...)
	b = strconv.AppendInt(b, int64(d.Preferred), 10)
	b = append(b, `,"chosen_cost_us":`...)
	b = strconv.AppendFloat(b, d.ChosenCost, 'g', -1, 64)
	b = append(b, `,"best_cost_us":`...)
	b = strconv.AppendFloat(b, d.BestCost, 'g', -1, 64)
	b = append(b, `,"candidates":[`...)
	for i, cd := range d.Candidates {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"proc":`...)
		b = strconv.AppendInt(b, int64(cd.Proc), 10)
		if cd.Warm {
			b = append(b, `,"warm":true,"cost_us":`...)
		} else {
			b = append(b, `,"warm":false,"cost_us":`...)
		}
		b = strconv.AppendFloat(b, cd.Cost, 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	c.write(b)
}
