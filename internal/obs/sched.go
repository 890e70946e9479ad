package obs

import (
	"fmt"
	"io"

	"chopin/internal/report"
)

// SchedWorker is one worker row of a scheduler-utilization summary, decoded
// from a KindSchedWorker event.
type SchedWorker struct {
	Worker   int
	BusyNS   float64
	ParkNS   float64
	Tasks    int64
	QueueMax int64
}

// SchedSummary collects the per-worker scheduler events of a telemetry
// stream, in worker order. Non-scheduler events are ignored.
func SchedSummary(events []Event) []SchedWorker {
	var out []SchedWorker
	for _, e := range events {
		if e.Kind != KindSchedWorker {
			continue
		}
		out = append(out, SchedWorker{
			Worker:   int(e.Value),
			BusyNS:   e.BusyNS,
			ParkNS:   e.ParkNS,
			Tasks:    int64(e.Tasks),
			QueueMax: int64(e.QueueMax),
		})
	}
	return out
}

// WriteSchedTable renders the stream's scheduler telemetry as a one-screen
// utilization table: one row per pool worker with its busy/park time split
// (and busy share of the two), tasks executed and the task queue's
// high-water mark, plus a totals row. It writes nothing
// when the stream carries no scheduler events (engines emit them on Close).
func WriteSchedTable(w io.Writer, events []Event) {
	workers := SchedSummary(events)
	if len(workers) == 0 {
		return
	}
	t := report.NewTable("worker", "busy", "park", "util", "tasks", "qmax")
	var tot SchedWorker
	for _, ws := range workers {
		t.AddRow(fmt.Sprintf("%d", ws.Worker),
			fmtNS(ws.BusyNS), fmtNS(ws.ParkNS), fmtUtil(ws.BusyNS, ws.ParkNS),
			fmt.Sprintf("%d", ws.Tasks),
			fmt.Sprintf("%d", ws.QueueMax))
		tot.BusyNS += ws.BusyNS
		tot.ParkNS += ws.ParkNS
		tot.Tasks += ws.Tasks
		if ws.QueueMax > tot.QueueMax {
			tot.QueueMax = ws.QueueMax
		}
	}
	t.AddRow("total",
		fmtNS(tot.BusyNS), fmtNS(tot.ParkNS), fmtUtil(tot.BusyNS, tot.ParkNS),
		fmt.Sprintf("%d", tot.Tasks),
		fmt.Sprintf("%d", tot.QueueMax))
	t.Render(w)
}

// fmtUtil renders busy time as a share of the worker's accounted lifetime.
func fmtUtil(busy, park float64) string {
	total := busy + park
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*busy/total)
}
