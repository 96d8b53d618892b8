package aggregate

import (
	"fmt"
	"time"

	"xdmodfed/internal/config"
	"xdmodfed/internal/realm"
	"xdmodfed/internal/warehouse"
)

// Fact decoding: the one place a fact becomes fold input (time,
// rendered dimension values, measure values, weighted-pair products).
// Facts arrive in two forms, and each form has exactly one decoder:
//
//   - positional rows — binlog insert payloads, folded by the hub's
//     incremental ApplyFactRows and the pushdown DeltaFolder.FoldRows —
//     decode through rowReader.decode;
//   - column chunks of a table snapshot — scanned by a rebuild and by
//     the pushdown folder's snapshot Reset — decode through
//     factReader.decode, and foldSnapshot is the one walk over a
//     snapshot's chunks, tombstones and rows.
//
// Both decoders render dimensions through one binning rule
// (dimRule.bin) and read cells with Row.Float/Row.String semantics:
// integers widen; absent, NULL or mistyped cells read as zero values.
// Layouts resolve against the table's own column names, never
// hardcoded offsets, so a satellite whose fact columns are ordered
// differently still folds correctly.

// dimRule is the dimension-binning rule: categorical dimensions keep
// the raw string, numeric dimensions bin into the configured
// aggregation level, and numeric dimensions without configured levels
// collapse into the single "all" bucket.
type dimRule struct {
	numeric   bool
	levels    config.AggregationLevels
	hasLevels bool
}

func (e *Engine) dimRule(d realm.Dimension) dimRule {
	r := dimRule{numeric: d.Numeric}
	if d.Numeric {
		r.levels, r.hasLevels = e.levels[d.ID]
	}
	return r
}

// bin renders one dimension value from the cell's string reading (used
// by categorical dimensions) and its widened numeric reading (used by
// numeric dimensions with levels).
func (r *dimRule) bin(str string, num float64) string {
	switch {
	case !r.numeric:
		return str
	case r.hasLevels:
		return r.levels.BucketFor(num)
	}
	return "all"
}

// splitPair splits a "col*weight" pair name.
func splitPair(pair string) (string, string) {
	for i := 0; i < len(pair); i++ {
		if pair[i] == '*' {
			return pair[:i], pair[i+1:]
		}
	}
	return pair, ""
}

// factTS is a fact time as the fold's float seconds.
func factTS(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// rowReader decodes positional fact rows against the replicated
// table's definition.
type rowReader struct {
	ncols   int
	timeCol string
	timeIdx int
	dims    []posDim
	meas    []int
	wpairs  [][2]int
}

// posDim is one dimension's column index (-1 when absent) and rule.
type posDim struct {
	idx  int
	rule dimRule
}

func (e *Engine) newRowReader(info realm.Info, def warehouse.TableDef, cols, weights []string) (*rowReader, error) {
	idx := make(map[string]int, len(def.Columns))
	for i, c := range def.Columns {
		idx[c.Name] = i
	}
	at := func(name string) int {
		if i, ok := idx[name]; ok {
			return i
		}
		return -1
	}
	rr := &rowReader{ncols: len(def.Columns), timeCol: info.TimeColumn, timeIdx: at(info.TimeColumn)}
	if rr.timeIdx < 0 {
		return nil, fmt.Errorf("aggregate: fact row missing time column %q", info.TimeColumn)
	}
	rr.dims = make([]posDim, len(info.Dimensions))
	for i, d := range info.Dimensions {
		rr.dims[i] = posDim{idx: at(d.Column), rule: e.dimRule(d)}
	}
	rr.meas = make([]int, len(cols))
	for i, c := range cols {
		rr.meas[i] = at(c)
	}
	rr.wpairs = make([][2]int, len(weights))
	for i, w := range weights {
		a, b := splitPair(w)
		rr.wpairs[i] = [2]int{at(a), at(b)}
	}
	return rr, nil
}

func cellFloat(row []any, idx int) float64 {
	if idx < 0 {
		return 0
	}
	switch v := row[idx].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	}
	return 0
}

func cellString(row []any, idx int) string {
	if idx < 0 {
		return ""
	}
	s, _ := row[idx].(string)
	return s
}

// timeOf checks a row's shape and returns its fact time: the row must
// carry one value per table column and a time.Time in the time column.
func (rr *rowReader) timeOf(row []any) (time.Time, error) {
	if len(row) != rr.ncols {
		return time.Time{}, fmt.Errorf("row has %d values, table has %d columns", len(row), rr.ncols)
	}
	t, ok := row[rr.timeIdx].(time.Time)
	if !ok {
		return time.Time{}, fmt.Errorf("time column %q is %T, want time.Time", rr.timeCol, row[rr.timeIdx])
	}
	return t, nil
}

// decode reads one positional fact row into the caller's dims, vals
// and wvals buffers and returns its time. A row that fails timeOf's
// checks is rejected with the buffers in an unspecified state.
func (rr *rowReader) decode(row []any, dims []string, vals, wvals []float64) (time.Time, error) {
	t, err := rr.timeOf(row)
	if err != nil {
		return t, err
	}
	for i := range rr.dims {
		d := &rr.dims[i]
		dims[i] = d.rule.bin(cellString(row, d.idx), cellFloat(row, d.idx))
	}
	for i, mi := range rr.meas {
		vals[i] = cellFloat(row, mi)
	}
	for i, wp := range rr.wpairs {
		wvals[i] = cellFloat(row, wp[0]) * cellFloat(row, wp[1])
	}
	return t, nil
}

// numCol reads one numeric column of a snapshot chunk, widening
// integers the way Row.Float does; absent or non-numeric columns read
// as zero, and so do NULL cells.
type numCol struct {
	f     []float64
	i     []int64
	nulls []bool
}

func (c numCol) at(pos int) float64 {
	if c.nulls != nil && c.nulls[pos] {
		return 0
	}
	if c.f != nil {
		return c.f[pos]
	}
	if c.i != nil {
		return float64(c.i[pos])
	}
	return 0
}

func numColOf(ch warehouse.ColChunk, name string) numCol {
	ci, ok := ch.ColIndex(name)
	if !ok {
		return numCol{}
	}
	return numCol{f: ch.FloatCol(ci), i: ch.IntCol(ci), nulls: ch.NullCol(ci)}
}

// colDim is one dimension's column in a snapshot chunk, read both as a
// string (empty when absent, NULL or not a string column, like
// Row.String) and as a number, and its rule.
type colDim struct {
	strs  []string
	nulls []bool
	num   numCol
	rule  dimRule
}

func (d *colDim) str(pos int) string {
	if d.strs == nil || (d.nulls != nil && d.nulls[pos]) {
		return ""
	}
	return d.strs[pos]
}

// factReader decodes one fact-table chunk. Columns resolve once per
// chunk; decode then touches only typed vectors at chunk-local
// positions.
type factReader struct {
	timeCol string
	times   []time.Time
	tnulls  []bool
	dims    []colDim
	meas    []numCol
	wpairs  [][2]numCol
}

func (e *Engine) newFactReader(info realm.Info, ch warehouse.ColChunk, cols, weights []string) (*factReader, error) {
	fr := &factReader{timeCol: info.TimeColumn}
	ti, ok := ch.ColIndex(info.TimeColumn)
	if !ok {
		return nil, fmt.Errorf("aggregate: fact row missing time column %q", info.TimeColumn)
	}
	fr.times = ch.TimeCol(ti)
	if fr.times == nil {
		return nil, fmt.Errorf("aggregate: time column %q is not a time column, want time.Time", info.TimeColumn)
	}
	fr.tnulls = ch.NullCol(ti)
	fr.dims = make([]colDim, len(info.Dimensions))
	for i, d := range info.Dimensions {
		cd := colDim{num: numColOf(ch, d.Column), rule: e.dimRule(d)}
		if ci, ok := ch.ColIndex(d.Column); ok {
			cd.strs = ch.StringCol(ci)
			cd.nulls = ch.NullCol(ci)
		}
		fr.dims[i] = cd
	}
	fr.meas = make([]numCol, len(cols))
	for i, c := range cols {
		fr.meas[i] = numColOf(ch, c)
	}
	fr.wpairs = make([][2]numCol, len(weights))
	for i, w := range weights {
		a, b := splitPair(w)
		fr.wpairs[i] = [2]numCol{numColOf(ch, a), numColOf(ch, b)}
	}
	return fr, nil
}

// decode reads the fact at chunk position pos into the caller's dims,
// vals and wvals buffers and returns its time. A NULL time is an
// error: a fact without its time cannot be bucketed.
func (fr *factReader) decode(pos int, dims []string, vals, wvals []float64) (time.Time, error) {
	if fr.tnulls != nil && fr.tnulls[pos] {
		return time.Time{}, fmt.Errorf("aggregate: time column %q is <nil>, want time.Time", fr.timeCol)
	}
	for i := range fr.dims {
		d := &fr.dims[i]
		dims[i] = d.rule.bin(d.str(pos), d.num.at(pos))
	}
	for i := range fr.meas {
		vals[i] = fr.meas[i].at(pos)
	}
	for i := range fr.wpairs {
		wvals[i] = fr.wpairs[i][0].at(pos) * fr.wpairs[i][1].at(pos)
	}
	return fr.times[pos], nil
}

// resourceSkip drops facts whose resource column value is in exclude
// (the replication rewriter's filter); the zero value skips nothing.
type resourceSkip struct {
	column  string
	exclude map[string]bool
}

// foldSnapshot folds every live fact of one table snapshot, in row
// order, into per-shard folders: folders[k] (created on first use)
// receives the facts routing to shard k. Facts routing to a shard
// outside want (nil = every shard) and facts skip matches are dropped.
// It returns the number of facts folded.
//
// It runs lock-free against the immutable snapshot, chunk by chunk: a
// cold sealed segment is materialized only when the walk reaches it
// (and is evictable again as soon as the walk moves on), so the
// resident footprint is one segment plus the backend's budget — never
// the whole table.
func (e *Engine) foldSnapshot(info realm.Info, td *warehouse.TableData, sourceSchema string,
	rt shardRouter, want []bool, skip resourceSkip, cols, weights []string, folders []*folder) (int, error) {

	if td.NumRows() == 0 {
		return 0, nil
	}
	dims := make([]string, len(info.Dimensions))
	vals := make([]float64, len(cols))
	wvals := make([]float64, len(weights))
	n := 0
	for chunk := 0; chunk < td.NumChunks(); chunk++ {
		ch := td.Chunk(chunk)
		if ch.Rows() == 0 {
			continue
		}
		fr, err := e.newFactReader(info, ch, cols, weights)
		if err != nil {
			return 0, err
		}
		var res []string
		if len(skip.exclude) > 0 {
			if ci, ok := ch.ColIndex(skip.column); ok {
				res = ch.StringCol(ci)
			}
		}
		dead := ch.Tombstones()
		for pos := 0; pos < ch.Rows(); pos++ {
			if dead[pos] || (res != nil && pos < len(res) && skip.exclude[res[pos]]) {
				continue
			}
			t, err := fr.decode(pos, dims, vals, wvals)
			if err != nil {
				return 0, err
			}
			k := rt.shardOf(sourceSchema, dims)
			if want != nil && !want[k] {
				continue
			}
			if folders[k] == nil {
				folders[k] = newFolder()
			}
			folders[k].fold(t, dims, vals, wvals)
			n++
		}
	}
	return n, nil
}
