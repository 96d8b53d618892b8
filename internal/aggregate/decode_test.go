package aggregate

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xdmodfed/internal/realm/jobs"
)

// folderState renders a delta folder's cumulative bins, pending reset
// and dirty marks, so two folder states compare bit-exactly (%v
// prints the shortest float representation that round-trips).
func folderState(df *DeltaFolder) []string {
	out := []string{fmt.Sprintf("covered=%d reset=%v dirty=%v", df.covered, df.resetPending, df.Dirty())}
	for i, period := range df.f.periods {
		for _, k := range sortedKeys(df.f.groups[i]) {
			out = append(out, fmt.Sprintf("%s %+v dirty=%v", period, binOf(df.f.groups[i][k]), df.f.dirty[i][k]))
		}
	}
	return out
}

// TestPositionalDecoderRejects: the positional fact decoder rejects a
// row with the wrong column count, a time cell of the wrong type and a
// nil time cell. Both of its callers — the hub's incremental
// ApplyFactRows and the pushdown DeltaFolder.FoldRows — must surface
// the rejection and leave their state untouched, even when valid rows
// precede the bad one in the batch.
func TestPositionalDecoderRejects(t *testing.T) {
	db, eng, info := fixture(t, 60, 21)
	if _, err := eng.Reaggregate(info, []string{jobs.SchemaName}); err != nil {
		t.Fatal(err)
	}
	rows := factRowsPositional(t, db, jobs.SchemaName, jobs.FactTable)
	fact, err := db.TableIn(jobs.SchemaName, jobs.FactTable)
	if err != nil {
		t.Fatal(err)
	}
	ti := -1
	for i, c := range fact.Columns() {
		if c == info.TimeColumn {
			ti = i
		}
	}
	if ti < 0 {
		t.Fatalf("fact table has no time column %q", info.TimeColumn)
	}
	withTime := func(v any) []any {
		row := append([]any(nil), rows[1]...)
		row[ti] = v
		return row
	}
	cases := []struct {
		name, want string
		row        []any
	}{
		{"column count", fmt.Sprintf("row has %d values, table has %d columns", len(rows[1])-1, len(rows[1])), rows[1][:len(rows[1])-1]},
		{"time type", fmt.Sprintf("time column %q is string, want time.Time", info.TimeColumn), withTime("2017-03-01")},
		{"nil time", fmt.Sprintf("time column %q is <nil>, want time.Time", info.TimeColumn), withTime(nil)},
	}

	df, err := eng.NewDeltaFolder(info)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.Reset(nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := df.Flush(); !ok {
		t.Fatal("no reset delta")
	}
	wantTables := aggSnapshot(t, db, info)
	wantFold := folderState(df)

	for _, c := range cases {
		batch := [][]any{rows[0], c.row}
		_, err := eng.ApplyFactRows(info, jobs.SchemaName, batch)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ApplyFactRows err = %v, want %q", c.name, err, c.want)
		}
		if got := aggSnapshot(t, db, info); !reflect.DeepEqual(got, wantTables) {
			t.Errorf("%s: rejected ApplyFactRows batch changed the aggregation tables", c.name)
		}
		err = df.FoldRows(batch)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: FoldRows err = %v, want %q", c.name, err, c.want)
		}
		if got := folderState(df); !reflect.DeepEqual(got, wantFold) {
			t.Errorf("%s: rejected FoldRows batch changed the folder state", c.name)
		}
	}
}
