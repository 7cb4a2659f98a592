package harness

import (
	"context"
	"fmt"

	"fibersim/internal/miniapps/common"
	"fibersim/internal/obs"
)

// Execute resolves and runs the spec with a fresh Recorder, returning
// the run's manifest. It is the service-path twin of fiberbench's
// single-run flow: the spec's execution becomes a "run" child of
// whatever span rides ctx (obs.SpanFromContext), and the span's
// identity is written into the manifest's trace link, so a service
// trace ("where did this request's wall time go") and the manifest's
// per-kernel attribution ("where did the run's virtual time go") point
// at each other. With no span in ctx the run is untraced and the
// manifest carries no link — the manifest itself is identical either
// way.
func (s RunSpec) Execute(ctx context.Context) (*obs.Manifest, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	app, rc, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	rc.Recorder = rec
	rec.SetMeta(app.Name(), rc.String())

	span := obs.SpanFromContext(ctx).StartChild("run")
	span.SetAttr("app", app.Name())
	span.SetAttr("config", rc.String())
	res, err := app.Run(rc)
	if err != nil {
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	span.SetAttr("outcome", "ok")
	span.SetAttr("verified", fmt.Sprintf("%t", res.Verified))
	span.SetAttr("sim_seconds", fmt.Sprintf("%g", res.Time))
	span.End()

	doc := common.BuildManifest(res, rec)
	if sc := span.Context(); sc.Valid() {
		doc.Trace = &obs.TraceLink{TraceID: sc.TraceID.String(), SpanID: sc.SpanID.String()}
	}
	return doc, nil
}
