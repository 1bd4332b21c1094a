import numpy as np
import pytest

from mexfuse.features import (
    GLOBAL_FRAME,
    LOCAL_TRACK,
    PROMPT,
    EmbedderConfig,
    ProjectionMLP,
    concept_space,
    embed_synthetic,
)
from mexfuse.pipeline import ReferringModel
from mexfuse.tensor import (
    DimensionError,
    Linear,
    Tensor,
    fresh_context,
)

from conftest import mul, sum_all


def mean_pooled_cosine(a, b):
    va, vb = a.tokens[0].mean(axis=0), b.tokens[0].mean(axis=0)
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


class TestEmbedSynthetic:
    @pytest.mark.parametrize("oracle", [False, True])
    def test_model_batch_same_bytes(self, oracle):
        # the model draws a batch straight into one buffer; embed_synthetic one entity
        emb = EmbedderConfig(seed=6, raw_visual_dim=8, visual_tokens=3, raw_text_dim=5,
                             text_tokens=4, fused_dim=2, oracle_mode=oracle,
                             concepts=("red", "blue"))
        concept_of = {"a": "red", "b": "blue"}
        model = ReferringModel.build(emb, mlp_hidden=2, concept_of=concept_of)
        for modality in (GLOBAL_FRAME, LOCAL_TRACK, PROMPT):
            batch = model._raw_tokens(["a", "b", "c"], modality)
            for row, e in zip(batch, "abc"):
                one = embed_synthetic(e, modality, emb, concept=concept_of.get(e)).tokens[0]
                assert np.array_equal(row, one)

    def test_deterministic_bit_identical(self):
        cfg = EmbedderConfig(seed=3)
        a = embed_synthetic("car-1", LOCAL_TRACK, cfg)
        b = embed_synthetic("car-1", LOCAL_TRACK, cfg)
        assert np.array_equal(a.tokens, b.tokens)

    def test_distinct_across_entity_modality_seed(self):
        cfg = EmbedderConfig(seed=3)
        base = embed_synthetic("car-1", LOCAL_TRACK, cfg).tokens
        assert not np.array_equal(base, embed_synthetic("car-2", LOCAL_TRACK, cfg).tokens)
        assert not np.array_equal(base, embed_synthetic("car-1", GLOBAL_FRAME, cfg).tokens)
        other = EmbedderConfig(seed=4)
        assert not np.array_equal(base, embed_synthetic("car-1", LOCAL_TRACK, other).tokens)

    def test_shapes_match_paper_configuration(self):
        cfg = EmbedderConfig()
        assert embed_synthetic("e", GLOBAL_FRAME, cfg).tokens.shape == (1, 16, 768)
        assert embed_synthetic("e", LOCAL_TRACK, cfg).tokens.shape == (1, 16, 768)
        assert embed_synthetic("e", PROMPT, cfg).tokens.shape == (1, 20, 1024)

    def test_oracle_same_concept_high_cosine(self):
        cfg = EmbedderConfig(seed=5, oracle_mode=True, concepts=("red", "blue"))
        a = embed_synthetic("x1", LOCAL_TRACK, cfg, concept="red")
        b = embed_synthetic("x2", LOCAL_TRACK, cfg, concept="red")
        assert mean_pooled_cosine(a, b) >= 0.9

    def test_oracle_disjoint_concepts_low_cosine(self):
        cfg = EmbedderConfig(seed=5, oracle_mode=True, concepts=("red", "blue", "green"))
        a = embed_synthetic("x1", LOCAL_TRACK, cfg, concept="red")
        b = embed_synthetic("x2", LOCAL_TRACK, cfg, concept="blue")
        assert abs(mean_pooled_cosine(a, b)) <= 0.1

    def test_concept_space_orthonormal(self):
        cfg = EmbedderConfig(seed=1, oracle_mode=True, concepts=("a", "b", "c", "d"))
        basis = concept_space(cfg, 64)
        mat = np.stack(list(basis.values()))
        assert np.abs(mat @ mat.T - np.eye(4)).max() <= 1e-10

    def test_concept_space_memoised_read_only(self):
        cfg = EmbedderConfig(seed=1, oracle_mode=True, concepts=("a", "b"))
        first, second = concept_space(cfg, 16), concept_space(cfg, 16)
        assert first.keys() == second.keys()
        assert all(np.array_equal(first[c], second[c]) for c in first)
        with pytest.raises(ValueError):
            first["a"][0] = 5.0
        assert np.array_equal(concept_space(cfg, 16)["a"], second["a"])

    def test_unknown_concept_rejected(self):
        cfg = EmbedderConfig(oracle_mode=True, concepts=("a",))
        with pytest.raises(KeyError):
            embed_synthetic("x", LOCAL_TRACK, cfg, concept="zzz")


class TestTruncate:
    """``truncate_to`` keeps the first min(k, s) tokens of each raw stream."""

    def _tokens(self, truncate_to, text_tokens=20):
        emb = EmbedderConfig(seed=2, raw_visual_dim=4, visual_tokens=2, raw_text_dim=3,
                             text_tokens=text_tokens, fused_dim=2, truncate_to=truncate_to)
        return ReferringModel.build(emb, mlp_hidden=2)._raw_tokens(["e"], PROMPT)[0]

    def test_full_length_unchanged(self):
        assert np.array_equal(self._tokens(20), self._tokens(None))

    def test_prefix_slice(self):
        out = self._tokens(8)
        assert out.shape == (8, 3)
        assert np.array_equal(out, self._tokens(None)[:8])

    def test_min_rule(self):
        assert np.array_equal(self._tokens(8, text_tokens=5), self._tokens(None, text_tokens=5))

    def test_composition(self):
        assert np.array_equal(self._tokens(6), self._tokens(13)[:6])


def make_mlp(d_raw, d_k, rng, hidden=None):
    """A projection MLP of two fresh ``Linear.init``s: d_raw -> hidden -> d_k."""
    hidden = hidden or d_k
    return ProjectionMLP(Linear.init(d_raw, hidden, rng), Linear.init(hidden, d_k, rng))


def mlp_parameters(mlp):
    return mlp.first.parameters() + mlp.second.parameters()


class TestProject:
    def test_visual_paper_dims(self):
        rng = np.random.default_rng(0)
        mlp = make_mlp(768, 256, rng)
        assert mlp(Tensor(rng.standard_normal((2, 16, 768)))).data.shape == (2, 16, 256)

    def test_prompt_paper_dims(self):
        rng = np.random.default_rng(0)
        mlp = make_mlp(1024, 256, rng)
        assert mlp(Tensor(rng.standard_normal((2, 20, 1024)))).data.shape == (2, 20, 256)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(0)
        mlp = make_mlp(768, 256, rng)
        with pytest.raises(DimensionError):
            mlp(Tensor(rng.standard_normal((1, 20, 1024))))

    def test_census(self):
        mlp = make_mlp(768, 256, np.random.default_rng(0), hidden=512)
        census = sum(p.data.size for p in mlp_parameters(mlp))
        assert census == (768 * 512 + 512) + (512 * 256 + 256)

    def test_gelu_matches_formula(self):
        rng = np.random.default_rng(2)
        mlp = make_mlp(5, 3, rng, hidden=4)
        x = rng.standard_normal((2, 3, 5))
        h = x @ mlp.first.w.data + mlp.first.bias.data
        gelu = 0.5 * h * (1 + np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h ** 3)))
        expected = gelu @ mlp.second.w.data + mlp.second.bias.data
        assert np.abs(mlp(Tensor(x)).data - expected).max() <= 1e-12

    def test_gelu_node_bitwise_textbook(self):
        # forward and backward against the tanh-approximation formulas written out
        rng = np.random.default_rng(4)
        mlp = make_mlp(5, 3, rng, hidden=4)
        for p in mlp_parameters(mlp):
            p.data += rng.standard_normal(p.data.shape)  # non-zero biases
        x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
        g = rng.standard_normal((2, 3, 3))
        out = mlp(x)
        sum_all(mul(out, Tensor(g))).backward()
        w1, b1, w2, b2 = (p.data for p in mlp_parameters(mlp))
        c = np.sqrt(2.0 / np.pi)
        x2 = x.data.reshape(-1, 5)
        h = x2 @ w1 + b1
        t = np.tanh(c * (h + 0.044715 * (h * h * h)))
        a = 0.5 * h * (1.0 + t)
        assert np.array_equal(out.data, (a @ w2 + b2).reshape(2, 3, 3))
        g2 = g.reshape(-1, 3)
        d_inner = c * (1.0 + 3 * 0.044715 * (h * h))
        gh = (g2 @ w2.T) * (0.5 * (1.0 + t) + 0.5 * h * (1.0 - t * t) * d_inner)
        want = [(gh @ w1.T).reshape(x.data.shape), x2.T @ gh, gh.sum(axis=0), a.T @ g2,
                g2.sum(axis=0)]
        for got, w in zip([x.grad] + [p.grad for p in mlp_parameters(mlp)], want):
            assert np.array_equal(got, w)

    def test_hidden_is_the_gelu_of_first(self):
        # an MLP without second gives gelu(first(x)), charging h and gelu(h);
        # second over it is the whole MLP, bitwise
        rng = np.random.default_rng(5)
        rows, d_raw, hidden, d_k = 2 * 3, 5, 4, 3
        mlp = make_mlp(d_raw, d_k, rng, hidden=hidden)
        x = Tensor(rng.standard_normal((2, 3, d_raw)))
        with fresh_context() as ctx:
            a = ProjectionMLP(mlp.first)(x)
            snap = ctx.ledger.snapshot()
        assert a.data.shape == (2, 3, hidden)
        assert snap == {"peak_values": 2 * rows * hidden, "flops": rows * d_raw * hidden}
        assert np.array_equal(mlp.second(a).data, mlp(x).data)

    def test_one_node_charges_the_composed_chain(self):
        # h, gelu(h) and the output, and the multiply-adds of Linear -> Linear,
        # forward and backward
        rng = np.random.default_rng(3)
        rows, d_raw, hidden, d_k = 2 * 3 * 4, 6, 5, 3
        mlp = make_mlp(d_raw, d_k, rng, hidden=hidden)
        x = Tensor(rng.standard_normal((2, 3, 4, d_raw)))

        def run(forward):
            with fresh_context() as ctx:
                out = forward(x)
                fwd = ctx.ledger.snapshot()
                sum_all(out).backward()
                return fwd, ctx.ledger.flops

        (fwd, flops), (chain_fwd, chain_flops) = run(mlp), run(
            lambda t: mlp.second(mlp.first(t)))
        assert fwd["peak_values"] == rows * (2 * hidden + d_k)
        assert fwd["flops"] == chain_fwd["flops"] == rows * (d_raw * hidden + hidden * d_k)
        assert flops == chain_flops

