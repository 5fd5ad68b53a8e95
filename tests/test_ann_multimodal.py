"""ANN (brute-force + LSH recall) and multimodal plumbing tests."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _bmp_table(n: int) -> pa.Table:
    """The BMP rows of the mixed image fixture: real payloads of one size."""
    from epichypersketch_jl_ray.stages.multimodal import make_mixed_image_table

    tbl = make_mixed_image_table(2 * n)  # every other row is BMP
    return tbl.filter(pc.equal(tbl["mime"], "image/bmp"))


def _with_mime(tbl: pa.Table, mime: str) -> pa.Table:
    return tbl.set_column(
        tbl.schema.get_field_index("mime"), "mime", pa.array([mime] * tbl.num_rows, pa.string())
    )


def test_ann_lsh_recall(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.ann import ann_cosine_topk, ann_lsh_topk

    exact = ann_cosine_topk(sf_dir)
    approx = ann_lsh_topk(sf_dir)
    # recall@10 of the LSH path vs brute force
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact.query_id == qid]["neighbor_id"])
        a = set(approx[approx.query_id == qid]["neighbor_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls
    # rank 1 must be the query itself in both (cosine(self)=1)
    for df in (exact, approx):
        r1 = df[df["rank"] == 1]
        assert (r1["query_id"].to_numpy() == r1["neighbor_id"].to_numpy()).all()


def test_ann_topk_ranks_near_ties_on_the_quantized_cosine(ray_session):
    """Vectors 5 and 15 point the same way (15 = 3 x 5), so their cosines
    with query 0 are equal in exact arithmetic; numpy and DuckDB round them
    a few ulps apart, in opposite order. Ranked on the raw cosine, the
    pipeline and its SQL oracle put them in different order; ranked on the
    2^-16 quantized cosine they tie on both sides and neighbor_id breaks
    the tie, so the brute-force and the stored-candidate oracles match."""
    import os
    import shutil

    import duckdb
    import pyarrow.parquet as pq
    import ray

    from epichypersketch_jl_ray.pipelines.ann import ann_cosine_topk_sql
    from epichypersketch_jl_ray.pipelines.merged import ann_approx_topk_sql
    from epichypersketch_jl_ray.sources.sinks import store_dir
    from epichypersketch_jl_ray.stages.ann import brute_force_topk, distributed_topk
    from epichypersketch_jl_ray.stages.exchange import to_table

    rng = np.random.default_rng(3)
    e = rng.standard_normal((16, 16))
    e[5] = e[0] + 0.3 * rng.standard_normal(16)
    e[15] = 3.0 * e[5]
    emb = pa.table(
        {
            "vec_id": pa.array(range(16), pa.int64()),
            "embedding": pa.array(e.tolist(), pa.list_(pa.float64())),
        }
    )
    k = 3
    query_ref = ray.put((np.arange(5), e[:5]))
    cands = pa.concat_tables(
        [brute_force_topk(emb.slice(i, 8), query_ref=query_ref, k=k) for i in (0, 8)]
    )
    got = to_table(distributed_topk(ray.data.from_arrow(cands), k=k)).to_pandas()
    got = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert got[got.query_id == 0].neighbor_id.tolist() == [0, 5, 15]

    con = duckdb.connect()
    con.register("embeddings", emb)
    want = con.sql(ann_cosine_topk_sql(k)).df().sort_values(["query_id", "rank"])
    assert got.values.tolist() == want.reset_index(drop=True)[got.columns].values.tolist()

    # the raw cosines disagree on the order of the tied pair
    raw = cands.to_pandas().query("query_id == 0 and neighbor_id in (5, 15)")
    raw = raw.sort_values(["sim", "neighbor_id"], ascending=[False, True])
    raw_first = int(raw.neighbor_id.iloc[0])
    db_raw = con.sql(
        "SELECT e.vec_id, list_cosine_similarity(q.embedding, e.embedding) AS sim "
        "FROM embeddings q, embeddings e WHERE q.vec_id = 0 AND e.vec_id IN (5, 15) "
        "ORDER BY sim DESC, e.vec_id"
    ).df()
    assert raw_first != int(db_raw.vec_id.iloc[0])

    # the stored-candidate oracle re-ranks the same stream the same way
    for m in ("lsh", "ivf", "ivfpq"):
        path = os.path.join(store_dir("ann_cands"), m)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        pq.write_table(cands.select(["query_id", "neighbor_id"]), f"{path}/part-0.parquet")
    approx = con.sql(ann_approx_topk_sql(k)).df()
    for m in ("lsh", "ivf", "ivfpq"):
        mine = approx[approx.method == m].sort_values(["query_id", "rank"])
        assert mine[got.columns].values.tolist() == got.values.tolist()


def test_multimodal_plumbing(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.multimodal import image_features

    out = image_features(sf_dir, n=128, dim=16)
    assert len(out) == 128
    assert set(out.columns) == {"id", "embedding"}
    assert all(len(e) == 16 for e in out["embedding"].head(10))
    # deterministic across runs
    out2 = image_features(sf_dir, n=128, dim=16)
    a = np.array(out.sort_values("id")["embedding"].tolist())
    b = np.array(out2.sort_values("id")["embedding"].tolist())
    assert np.array_equal(a, b)


def test_decode_stages_raise_the_codec_seam_for_deleted_mimes(ray_session):
    """The codec seam is per-mime at call time: a real payload labelled with
    a mime no installed codec decodes raises NotImplementedError, also for
    the image and video mimes whose decoders were deleted last (a BMP
    labelled image/gif or image/webp, raw gray8 frames labelled video/gif)."""
    from epichypersketch_jl_ray.stages.multimodal import (
        decode_image,
        frame_sample_video,
        window_audio,
        make_mixed_audio_table,
        make_raw_video_table,
    )

    with pytest.raises(NotImplementedError):
        decode_image(_with_mime(_bmp_table(2), "image/jpeg"))
    with pytest.raises(NotImplementedError):
        frame_sample_video(_with_mime(make_raw_video_table(2), "video/avi"), stride=8)
    with pytest.raises(NotImplementedError):
        window_audio(_with_mime(make_mixed_audio_table(2), "audio/flac"), window=1024)
    for mime in ("image/gif", "image/webp"):
        with pytest.raises(NotImplementedError):
            decode_image(_with_mime(_bmp_table(2), mime))
    with pytest.raises(NotImplementedError):
        frame_sample_video(_with_mime(make_raw_video_table(2), "video/gif"), stride=8)


def test_decode_validates_payload(ray_session):
    from epichypersketch_jl_ray.stages.multimodal import decode_image

    tbl = _bmp_table(4)
    bad = tbl.set_column(3, "width", pa.array([99] * 4, pa.int32()))
    with pytest.raises(ValueError):
        decode_image(bad)


def test_multimodal_features_rows_and_keys_at_sf0_001(ray_session):
    """The registered query's row count per modality and its full
    (modality, id, part_idx) key set: 512 images, 64 videos x frames
    0/8/16, 64 clips x 4 windows."""
    from epichypersketch_jl_ray.pipelines.merged import multimodal_features

    out = multimodal_features("sf0.001")
    assert out.groupby("modality").size().to_dict() == {
        "image": 512, "video": 64 * 3, "audio": 64 * 4,
    }
    keys = set(zip(out["modality"], out["id"], out["part_idx"]))
    assert len(keys) == len(out)
    assert keys == (
        {("image", i, 0) for i in range(512)}
        | {("video", i, f) for i in range(64) for f in (0, 8, 16)}
        | {("audio", i, w) for i in range(64) for w in range(4)}
    )


def test_video_frame_sampling(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.multimodal import video_frame_features
    from epichypersketch_jl_ray.stages.multimodal import frame_sample_video, make_raw_video_table

    out = video_frame_features(sf_dir, n=32, stride=8)
    # 24 frames, stride 8 -> frames 0, 8, 16 per video
    per_video = out.groupby("id")["frame_idx"].apply(sorted)
    assert all(v == [0, 8, 16] for v in per_video)
    # deterministic
    out2 = video_frame_features(sf_dir, n=32, stride=8)
    a = np.array(out.sort_values(["id", "frame_idx"])["embedding"].tolist())
    b = np.array(out2.sort_values(["id", "frame_idx"])["embedding"].tolist())
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        frame_sample_video(make_raw_video_table(1), stride=0)


def test_audio_windowing(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.multimodal import audio_window_features
    from epichypersketch_jl_ray.stages.multimodal import make_mixed_audio_table, window_audio

    out = audio_window_features(sf_dir, n=16, window=1024)
    # 4096 samples / 1024 window -> 4 windows per clip
    per_clip = out.groupby("id")["window_idx"].apply(sorted)
    assert all(v == [0, 1, 2, 3] for v in per_clip)
    assert all(len(e) == 8 for e in out["embedding"].head(5))
    with pytest.raises(ValueError):
        window_audio(make_mixed_audio_table(1), window=0)


def test_multimodal_stages_honour_sliced_batches():
    """A zero-copy sliced batch has a non-zero array offset; the decode
    stages must read the right rows' payload bytes (the BMP, raw-gray8 and
    PCM16-WAV payloads are each of one size, so reading the wrong rows
    would pass every length and header check)."""
    from epichypersketch_jl_ray.stages.multimodal import (
        decode_image,
        frame_sample_video,
        window_audio,
        make_mixed_audio_table,
        make_raw_video_table,
    )

    img = _bmp_table(10)
    assert len(set(map(len, img["payload"].to_pylist()))) == 1
    full = decode_image(img)
    part = decode_image(img.slice(4, 3))
    for i in range(3):
        assert np.array_equal(
            np.asarray(part["pixels"][i].as_py()), np.asarray(full["pixels"][4 + i].as_py())
        )

    vid = make_raw_video_table(6)
    vfull = frame_sample_video(vid, stride=8).to_pandas()
    vpart = frame_sample_video(vid.slice(2, 2), stride=8).to_pandas()
    assert len(vpart) == 2 * 3
    for _, row in vpart.iterrows():
        ref = vfull[(vfull["id"] == row["id"]) & (vfull["frame_idx"] == row["frame_idx"])]
        assert np.array_equal(np.asarray(row["pixels"]), np.asarray(ref.iloc[0]["pixels"]))

    aud = make_mixed_audio_table(6)
    assert len(set(map(len, aud["payload"].to_pylist()))) == 1
    afull = window_audio(aud, window=1024).to_pandas()
    apart = window_audio(aud.slice(3, 2), window=1024).to_pandas()
    assert len(apart) == 2 * 4
    for _, row in apart.iterrows():
        ref = afull[(afull["id"] == row["id"]) & (afull["window_idx"] == row["window_idx"])]
        assert np.array_equal(np.asarray(row["pixels"]), np.asarray(ref.iloc[0]["pixels"]))


def test_binary_buffers_slice_safe():
    """_binary_buffers on a plain sliced Array (offset != 0) must return the
    sliced rows' offsets, not the parent buffer's start."""
    from epichypersketch_jl_ray.stages.multimodal import _binary_buffers

    arr = _bmp_table(10)["payload"].combine_chunks()
    sl = arr.slice(4, 3)
    assert sl.offset == 4
    offsets, values = _binary_buffers(sl)
    assert len(offsets) == 4
    for i in range(3):
        assert bytes(values[offsets[i] : offsets[i + 1]]) == arr[4 + i].as_py()


def test_ann_ivf_recall_vs_bruteforce(ray_session, sf_dir):
    """IVF probing: exact ranking of probed candidates, recall vs the exact
    brute-force top-k."""
    from epichypersketch_jl_ray.pipelines.ann import ann_cosine_topk, ann_ivf_topk

    exact = ann_cosine_topk(sf_dir)
    ivf = ann_ivf_topk(sf_dir)
    want = set(zip(exact["query_id"], exact["neighbor_id"]))
    got = set(zip(ivf["query_id"], ivf["neighbor_id"]))
    recall = len(got & want) / len(want)
    assert recall >= 0.5, f"recall {recall:.2f}"
    # each query's own vector lives in its best-probed list -> rank 1 found
    self_hits = ivf[(ivf["query_id"] == ivf["neighbor_id"]) & (ivf["rank"] == 1)]
    assert len(self_hits) == ivf["query_id"].nunique()


def test_frequent_directions_bound_and_merge():
    """FD covariance guarantee 0 <= x'(A'A-B'B)x <= ||A||_F^2/ell, merge
    composes the bound, and the sketched top subspace captures almost all
    the energy of a planted low-rank + noise matrix."""
    import numpy as np

    from epichypersketch_jl_ray.state.frequentdirections import FrequentDirections

    rng = np.random.default_rng(2)
    d, n, ell = 32, 5000, 24
    basis = np.linalg.qr(rng.standard_normal((d, 4)))[0].T  # 4 planted directions
    A = rng.standard_normal((n, 4)) @ (basis * np.array([10, 8, 6, 4])[:, None])
    A += 0.1 * rng.standard_normal((n, d))

    whole = FrequentDirections(d, ell=ell).update(A)
    parts = [FrequentDirections(d, ell=ell).update(c) for c in np.array_split(A, 7)]
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)

    ata = A.T @ A
    for fd in (whole, merged):
        diff = ata - fd.cov_estimate()
        eig = np.linalg.eigvalsh(diff)
        assert eig.min() > -1e-6  # one-sided: B'B never overestimates
        assert eig.max() <= fd.error_bound() + 1e-6
        # planted 4-dim subspace recovered: projecting A on the sketch's top-4
        # directions keeps ~all of the energy the exact top-4 keeps
        _, vt = fd.top_directions(4)
        exact_energy = (np.linalg.svd(A, compute_uv=False)[:4] ** 2).sum()
        got_energy = ((A @ vt.T) ** 2).sum()
        assert got_energy >= 0.98 * exact_energy


def test_embedding_pca_pipeline(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.ann import embedding_principal_components

    out = embedding_principal_components(sf_dir, k=4)
    assert len(out) == 4
    assert (out["singular_value"].to_numpy() > 0).all()
    assert (np.diff(out["singular_value"].to_numpy()) <= 1e-9).all()  # sorted desc
    assert 0 < out["energy_share"].sum() <= 1.0 + 1e-9


def test_ann_ivfpq_recall_and_exact_rerank(ray_session, sf_dir):
    """IVF-PQ: recall vs brute force bounded below, AND every returned sim
    equals the true cosine (the ADC score only shortlists; ranking is an
    exact re-rank of in-batch vectors)."""
    from epichypersketch_jl_ray.pipelines.ann import ann_cosine_topk, ann_ivfpq_topk

    bf = ann_cosine_topk(sf_dir)
    pq_ = ann_ivfpq_topk(sf_dir)
    want = set(zip(bf["query_id"], bf["neighbor_id"]))
    got = set(zip(pq_["query_id"], pq_["neighbor_id"]))
    recall = len(got & want) / len(want)
    assert recall >= 0.5, recall
    # exact re-rank: both rank by TRUE cosine, so among shared pairs the
    # relative order must agree exactly for every query
    bf_rank = {(q, n): r for q, n, r in zip(bf["query_id"], bf["neighbor_id"], bf["rank"])}
    for q in set(pq_["query_id"]):
        sub = pq_[pq_["query_id"] == q].sort_values("rank")
        shared = [bf_rank[(q, n)] for n in sub["neighbor_id"] if (q, n) in bf_rank]
        assert shared == sorted(shared), (q, shared)


def test_ann_ivfpq_deterministic(ray_session, sf_dir):
    from epichypersketch_jl_ray.pipelines.ann import ann_ivfpq_topk

    key = ["query_id", "rank"]
    a = ann_ivfpq_topk(sf_dir).sort_values(key).reset_index(drop=True)
    b = ann_ivfpq_topk(sf_dir).sort_values(key).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_ann_lsh_candidates_stay_in_their_querys_probe_set(ray_session, sf_dir, tmp_path):
    """Every candidate the LSH path emits must come from ITS OWN query's
    probe set (hamming <= probe_hamming of that query's bucket) — the
    regression guard for the cross-query leakage fixed in round 5, where
    rows from the UNION of all queries' buckets were scored against every
    query, inflating recall."""
    import pyarrow.dataset as pads

    from epichypersketch_jl_ray.pipelines.ann import _fetch_probes, ann_lsh_topk
    from epichypersketch_jl_ray.sources.tables import read_table
    from epichypersketch_jl_ray.stages.ann import LSHBuckets, _embedding_matrix

    bits, radius = 8, 3
    store = str(tmp_path / "lsh_cands")
    ann_lsh_topk(sf_dir, bits=bits, probe_hamming=radius, store=store)
    cands = pads.dataset(store).to_table().to_pandas()
    assert len(cands) > 0

    q_ids, q = _fetch_probes(sf_dir)
    lsh = LSHBuckets(q.shape[1], bits=bits)
    q_bucket = dict(zip(q_ids.tolist(), lsh.bucket_of(q).tolist()))
    emb = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]).materialize()
    tbl = emb.to_pandas()
    import pyarrow as pa

    mat = _embedding_matrix(pa.Table.from_pandas(tbl), "embedding")
    n_bucket = dict(zip(tbl["vec_id"].tolist(), lsh.bucket_of(mat).tolist()))
    for qid, nid in zip(cands["query_id"], cands["neighbor_id"]):
        ham = bin(q_bucket[int(qid)] ^ n_bucket[int(nid)]).count("1")
        assert ham <= radius, (qid, nid, ham)
