package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// Every registered experiment must run in Quick mode and yield at least one
// non-empty table.
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
