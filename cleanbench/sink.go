package main

import (
	"context"
	"sync/atomic"

	"cleandb"
	"cleandb/internal/data"
	"cleandb/internal/sink"
)

// sinkStats accumulates what the sink layer did, across every sink wrapped
// with the same stats.
type sinkStats struct {
	rows atomic.Int64
}

// timedSink records a span around every Sink method. It is the sink the
// engine sees, so it must expose exactly the optional interfaces of the sink
// it wraps: claiming one the inner sink lacks, or hiding one it has, would
// change the export path. wrapSink picks the matching shape.
type timedSink struct {
	inner  cleandb.Sink
	tr     *tracer
	parent int
	req    int64
	stats  *sinkStats
}

func (s *timedSink) Open(schema []string) error {
	id := s.tr.begin("sink.open", s.parent, s.req)
	defer s.tr.end(id)
	return s.inner.Open(schema)
}

func (s *timedSink) WritePartition(i int, rows []cleandb.Value) error {
	id := s.tr.begin("sink.write", s.parent, s.req)
	defer s.tr.end(id)
	s.stats.rows.Add(int64(len(rows)))
	return s.inner.WritePartition(i, rows)
}

func (s *timedSink) Close() error {
	id := s.tr.begin("sink.close", s.parent, s.req)
	defer s.tr.end(id)
	return s.inner.Close()
}

type batchPart struct{ s *timedSink }

func (p batchPart) WriteBatch(ctx context.Context, b *data.ColumnBatch) error {
	id := p.s.tr.begin("sink.write", p.s.parent, p.s.req)
	defer p.s.tr.end(id)
	p.s.stats.rows.Add(int64(b.N))
	return p.s.inner.(sink.BatchSink).WriteBatch(ctx, b)
}

type abortPart struct{ s *timedSink }

func (p abortPart) Abort() error {
	id := p.s.tr.begin("sink.close", p.s.parent, p.s.req)
	defer p.s.tr.end(id)
	return p.s.inner.(sink.Aborter).Abort()
}

// ctxCloser is the sink package's optional context-aware Close.
type ctxCloser interface {
	CloseContext(ctx context.Context) error
}

type closeCtxPart struct{ s *timedSink }

func (p closeCtxPart) CloseContext(ctx context.Context) error {
	id := p.s.tr.begin("sink.close", p.s.parent, p.s.req)
	defer p.s.tr.end(id)
	return p.s.inner.(ctxCloser).CloseContext(ctx)
}

// wrapSink returns inner behind a timedSink whose method set mirrors
// inner's optional interfaces. Sink spans are children of parent.
func wrapSink(inner cleandb.Sink, tr *tracer, parent int, req int64, stats *sinkStats) cleandb.Sink {
	t := &timedSink{inner: inner, tr: tr, parent: parent, req: req, stats: stats}
	_, isBatch := inner.(sink.BatchSink)
	_, isAbort := inner.(sink.Aborter)
	_, isCtx := inner.(ctxCloser)
	b, a, c := batchPart{t}, abortPart{t}, closeCtxPart{t}
	switch {
	case isBatch && isAbort && isCtx:
		return struct {
			*timedSink
			batchPart
			abortPart
			closeCtxPart
		}{t, b, a, c}
	case isBatch && isAbort:
		return struct {
			*timedSink
			batchPart
			abortPart
		}{t, b, a}
	case isBatch && isCtx:
		return struct {
			*timedSink
			batchPart
			closeCtxPart
		}{t, b, c}
	case isAbort && isCtx:
		return struct {
			*timedSink
			abortPart
			closeCtxPart
		}{t, a, c}
	case isBatch:
		return struct {
			*timedSink
			batchPart
		}{t, b}
	case isAbort:
		return struct {
			*timedSink
			abortPart
		}{t, a}
	case isCtx:
		return struct {
			*timedSink
			closeCtxPart
		}{t, c}
	default:
		return t
	}
}
