package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvHeader is the column layout of a serialised trace.
var csvHeader = []string{"seq", "arrival_s", "work_at_fmax_s", "clip", "arrival_rate", "decode_rate_max"}

// WriteCSV serialises a trace, one row per frame, with the oracle rates
// included so ideal-detection replays remain possible.
func WriteCSV(w io.Writer, tr *Trace) error {
	if tr == nil || len(tr.Frames) == 0 {
		return fmt.Errorf("workload: nothing to write")
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	row := make([]string, len(csvHeader))
	for _, f := range tr.Frames {
		row[0] = strconv.Itoa(f.Seq)
		row[1] = strconv.FormatFloat(f.Arrival, 'g', 17, 64)
		row[2] = strconv.FormatFloat(f.Work, 'g', 17, 64)
		row[3] = strconv.Itoa(f.ClipIndex)
		row[4] = strconv.FormatFloat(f.TrueArrivalRate, 'g', 17, 64)
		row[5] = strconv.FormatFloat(f.TrueDecodeRateMax, 'g', 17, 64)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV deserialises a trace written by WriteCSV. The rate-change schedule
// is reconstructed from the per-frame oracle rates; inter-clip gap metadata
// is not stored in the CSV, so IdleGaps comes back empty (IdleModel then
// falls back to its short-gap default).
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: reading CSV header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("workload: CSV column %d is %q, want %q", i, header[i], want)
		}
	}
	tr := &Trace{}
	prevArrival := 0.0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: reading CSV row: %w", err)
		}
		f, err := parseFrame(row)
		if err != nil {
			return nil, err
		}
		if f.Seq != len(tr.Frames) {
			return nil, fmt.Errorf("workload: CSV row out of order: seq %d at position %d", f.Seq, len(tr.Frames))
		}
		if f.Arrival <= prevArrival && len(tr.Frames) > 0 {
			return nil, fmt.Errorf("workload: non-increasing arrival at seq %d", f.Seq)
		}
		prevArrival = f.Arrival
		// Rebuild the rate-change schedule from the oracle columns.
		if n := len(tr.Changes); n == 0 ||
			tr.Changes[n-1].ArrivalRate != f.TrueArrivalRate ||
			tr.Changes[n-1].DecodeRateMax != f.TrueDecodeRateMax {
			tr.Changes = append(tr.Changes, RateChange{
				Time:              f.Arrival,
				ArrivalRate:       f.TrueArrivalRate,
				DecodeRateMax:     f.TrueDecodeRateMax,
				ClipIndex:         f.ClipIndex,
				FirstFrameOfRange: len(tr.Frames),
			})
		}
		tr.Frames = append(tr.Frames, f)
	}
	if len(tr.Frames) == 0 {
		return nil, fmt.Errorf("workload: CSV contains no frames")
	}
	tr.Duration = tr.Frames[len(tr.Frames)-1].Arrival
	return tr, nil
}

func parseFrame(row []string) (TraceFrame, error) {
	var f TraceFrame
	var err error
	if f.Seq, err = strconv.Atoi(row[0]); err != nil {
		return f, fmt.Errorf("workload: bad seq %q: %w", row[0], err)
	}
	fields := []struct {
		dst  *float64
		name string
		idx  int
	}{
		{&f.Arrival, "arrival", 1},
		{&f.Work, "work", 2},
		{&f.TrueArrivalRate, "arrival_rate", 4},
		{&f.TrueDecodeRateMax, "decode_rate_max", 5},
	}
	for _, fd := range fields {
		v, err := strconv.ParseFloat(row[fd.idx], 64)
		if err != nil {
			return f, fmt.Errorf("workload: bad %s %q: %w", fd.name, row[fd.idx], err)
		}
		if v < 0 {
			return f, fmt.Errorf("workload: negative %s at seq %d", fd.name, f.Seq)
		}
		*fd.dst = v
	}
	if f.Work <= 0 {
		return f, fmt.Errorf("workload: non-positive work at seq %d", f.Seq)
	}
	if f.ClipIndex, err = strconv.Atoi(row[3]); err != nil {
		return f, fmt.Errorf("workload: bad clip index %q: %w", row[3], err)
	}
	if f.ClipIndex < 0 {
		return f, fmt.Errorf("workload: negative clip index at seq %d", f.Seq)
	}
	return f, nil
}
