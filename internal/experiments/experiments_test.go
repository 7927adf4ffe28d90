package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/microbench"
	"repro/internal/platform"
	"repro/internal/report"
)

// quickDigests pins each experiment's Quick rendering by the first 16 hex
// digits of the SHA-256 of its String(), so a swapped column or a moved
// cell fails tier-1. The output is independent of Jobs, so the digests do
// not depend on the host.
var quickDigests = map[string]string{
	"table1":   "547e068fa4147824",
	"fig1a":    "e07fcffb8a1abb4c",
	"fig1b":    "2b249f93594df4ad",
	"fig1c":    "6681f4f49e0282f9",
	"fig1d":    "8aebfcb2fa551f63",
	"fig2":     "670c18acad3811c9",
	"fig3":     "7142dff732497e57",
	"fig4":     "fbed23a53f43b319",
	"fig5":     "8c3070e03a67bbb1",
	"fig6":     "f0cc4f40a8537f9f",
	"table2":   "d9451c838cb76d05",
	"table3":   "48e88024dea8b565",
	"fig7":     "ab2e6dbee4f2c0c1",
	"fig8":     "ae97eaa806483319",
	"xscale":   "228fd0f98ca6f3d8",
	"xreg":     "6475b39e43baf59b",
	"xoverlap": "f6f0d8c213b6d258",
	"xloggp":   "a6be1775262502bc",
	"xattrib":  "b700f7fed87e042c",
	"xeager":   "dfadc5f22de7def7",
	"xnoise":   "37d43fcf46696b56",
	"xroute":   "b141822b56a43ffb",
	"xrget":    "779dcb6cc8270b76",
	"xfault":   "e7742533f1ea8f32",
}

// Every registered experiment must run in Quick mode, yield at least one
// non-empty table, and render exactly its pinned digest.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
			}
			if !strings.Contains(res.String(), e.ID) {
				t.Fatal("rendering lacks id")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.String())))[:16]; got != quickDigests[e.ID] {
				t.Errorf("rendering digest %s, want %s:\n%s", got, quickDigests[e.ID], res.String())
			}
		})
	}
}

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{
		"table1", "table2", "table3",
		"fig1a", "fig1b", "fig1c", "fig1d",
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"xscale", "xreg", "xoverlap", "xloggp", "xattrib", "xeager", "xnoise", "xroute", "xrget",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

// An experiment whose context is cancelled must report the interruption,
// not return tables whose skipped points read 0.
func TestCancelledContextIsAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range All() {
		res, err := e.Run(Options{Quick: true, Ctx: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", e.ID, err)
		}
		if res != nil {
			t.Errorf("%s: returned a partial result", e.ID)
		}
	}
}

func TestListing(t *testing.T) {
	ids := IDs()
	lines := strings.Split(strings.TrimRight(Listing(), "\n"), "\n")
	if len(lines) != len(ids) {
		t.Fatalf("Listing has %d lines, registry %d experiments", len(lines), len(ids))
	}
	for i, id := range ids {
		if !strings.HasPrefix(lines[i], id+" ") {
			t.Errorf("listing line %d = %q, want id %s first", i, lines[i], id)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown id should error")
	}
	e, err := Get("fig7")
	if err != nil || e.ID != "fig7" {
		t.Fatalf("Get(fig7) = %+v, %v", e, err)
	}
}

// TestFig1cIsExact: fig1c's ratios are quotients of fig1b's measured
// bandwidths, not of its rounded cells. Every quick fig1c cell is AddRow's
// rendering of the Elan-4 value over the InfiniBand value at that size,
// both measured here with fig1b's parameters.
func TestFig1cIsExact(t *testing.T) {
	sizes, iters := fig1Sizes(true), fig1Iters(true)
	ssizes := sizes[1:] // fig1b streams every size but 0
	pingpong := map[platform.Network][]float64{}
	streaming := map[platform.Network][]float64{}
	for _, net := range platform.Networks {
		pp, err := microbench.PingPong(platform.Options{Network: net}, sizes, iters)
		if err != nil {
			t.Fatal(err)
		}
		st, err := microbench.Streaming(platform.Options{Network: net}, ssizes, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ssizes {
			pingpong[net] = append(pingpong[net], pp[i+1].Bandwidth.MBpsValue())
			streaming[net] = append(streaming[net], st[i].Bandwidth.MBpsValue())
		}
	}
	res, err := runFig1c(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[0].Rows
	if len(rows) != len(ssizes) {
		t.Fatalf("%d rows, want %d", len(rows), len(ssizes))
	}
	el, ib := platform.QuadricsElan4, platform.InfiniBand4X
	for i, size := range ssizes {
		want := report.NewTable("", "size", "ping-pong ratio", "streaming ratio")
		want.AddRow(fmtBytes(size), pingpong[el][i]/pingpong[ib][i], streaming[el][i]/streaming[ib][i])
		if !reflect.DeepEqual(rows[i], want.Rows[0]) {
			t.Errorf("row %v, want %v", rows[i], want.Rows[0])
		}
	}
}
