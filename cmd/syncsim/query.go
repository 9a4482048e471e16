package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"optsync"
)

// runQueryCmd implements `syncsim query`: predicate-pushdown queries
// against a columnar trace lake. Events stream out as JSONL (default)
// or CSV in the lake's block order, decoded by a parallel worker pool
// (-workers; 0 = one per core) with output bytes identical at every
// worker count; -ordered switches to the k-way merge that interleaves
// event types back into recorded stream order (by the lake's seq column,
// not by time) at some merge cost. -stats prints only what the scan
// touched — the observable proof that the footer index pruned
// non-matching blocks — and answers fully-covered blocks from the footer
// alone, without decoding them.
func runQueryCmd(args []string) (err error) {
	fs := flag.NewFlagSet("syncsim query", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "lake file to query (- for stdin; record one with -run ... -trace run.lake, or convert: syncsim trace -in FILE -out FILE.lake)")
		types   = fs.String("type", "", "comma-separated event types to keep (e.g. skew_sample,pulse); empty = all")
		node    = fs.Int("node", 0, "keep events touching this node id (as sender or receiver)")
		from    = fs.Float64("from", 0, "keep events with T >= this simulated time (s)")
		to      = fs.Float64("to", 0, "keep events with T <= this simulated time (s)")
		round   = fs.Int("round", 0, "keep events of this exact protocol round")
		csv     = fs.Bool("csv", false, "emit CSV instead of JSONL")
		stats   = fs.Bool("stats", false, "print scan statistics (blocks pruned/covered/scanned) instead of events")
		workers = fs.Int("workers", 0, "decode workers (0 = one per core, 1 = serial); output is identical at every count")
		ordered = fs.Bool("ordered", false, "merge event types back into recorded stream order (the seq column) instead of the lake's block order")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("query: -in FILE is required")
	}
	if *csv && *stats {
		return fmt.Errorf("query: -csv and -stats are mutually exclusive")
	}

	q := optsync.LakeQuery{Workers: *workers}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *types != "" {
		for _, name := range strings.Split(*types, ",") {
			t, ok := optsync.EventTypeByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("query: unknown event type %q (types: %s)", name, eventTypeNames())
			}
			q.Types = append(q.Types, t)
		}
	}
	if set["node"] {
		id, err := int32Flag("node", *node)
		if err != nil {
			return err
		}
		q = q.WithNode(id)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"from", *from}, {"to", *to}} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("query: -%s NaN is not a simulated time", f.name)
		}
	}
	if set["from"] || set["to"] {
		lo, hi := math.Inf(-1), math.Inf(1)
		if set["from"] {
			lo = *from
		}
		if set["to"] {
			hi = *to
		}
		q = q.WithTimeRange(lo, hi)
	}
	if set["round"] {
		k, err := int32Flag("round", *round)
		if err != nil {
			return err
		}
		q = q.WithRound(k)
	}

	rec, err := openRecording(*in)
	if err != nil {
		return err
	}
	defer rec.Close()
	l := rec.lake
	if l == nil {
		out := strings.TrimSuffix(*in, ".jsonl")
		if *in == "-" {
			out = "run"
		}
		return fmt.Errorf("query: %s is not a trace lake (convert a row trace with: syncsim trace -in %s -out %s.lake)",
			*in, *in, out)
	}

	w := bufio.NewWriter(os.Stdout)
	// A failed flush (closed stdout pipe, full disk) must surface as the
	// command's error, not vanish: rows already emitted would silently
	// truncate.
	defer func() {
		if ferr := w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if *stats {
		// Stats never materializes events: pruned and fully-covered
		// blocks are answered from the footer, only partial blocks
		// decode.
		st, err := l.Stats(q)
		if err != nil {
			return err
		}
		t := optsync.NewTable("lake query", "stat", "value")
		t.AddRow("blocks total", fmt.Sprint(st.BlocksTotal))
		t.AddRow("blocks pruned", fmt.Sprint(st.BlocksPruned))
		t.AddRow("blocks covered", fmt.Sprint(st.BlocksCovered))
		t.AddRow("blocks scanned", fmt.Sprint(st.BlocksScanned))
		t.AddRow("rows decoded", fmt.Sprint(st.RowsDecoded))
		t.AddRow("events matched", fmt.Sprint(st.EventsMatched))
		fmt.Fprintln(w, t.Render())
		return nil
	}
	var emit func(optsync.Event) error
	if *csv {
		emit = csvEmitter(w)
	} else {
		// JSONL output is the trace format itself, so it pipes back into
		// `syncsim trace -in -`.
		tw := optsync.NewTraceWriter(w)
		defer func() {
			if ferr := tw.Flush(); ferr != nil && err == nil {
				err = ferr
			}
		}()
		emit = func(ev optsync.Event) error {
			tw.OnEvent(ev)
			return tw.Err()
		}
	}
	scan := l.ScanUnordered
	if *ordered {
		scan = l.Scan
	}
	if _, err := scan(q, emit); err != nil {
		return err
	}
	return nil
}

// int32Flag narrows an int flag that names a node id or a round,
// refusing a value int32 cannot hold instead of letting it wrap.
func int32Flag(name string, v int) (int32, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("query: -%s %d is outside the int32 range of node ids and rounds", name, v)
	}
	return int32(v), nil
}

func csvEmitter(w io.Writer) func(optsync.Event) error {
	fmt.Fprintln(w, "type,t,from,to,kind,round,value,aux")
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return func(ev optsync.Event) error {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d,%s,%s\n",
			ev.Type, g(ev.T), ev.From, ev.To, ev.Kind, ev.Round, g(ev.Value), g(ev.Aux))
		return err
	}
}

func eventTypeNames() string {
	names := make([]string, 0, 11)
	for _, t := range optsync.AllEventTypes() {
		names = append(names, t.String())
	}
	return strings.Join(names, " ")
}
