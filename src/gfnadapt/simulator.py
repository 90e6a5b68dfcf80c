"""Reduced mechanistic greenhouse crop simulator and synthetic contexts.

Daily recurrence over (leaf, fruit, stem mass, temperature sum): light
interception through the canopy, CO2 and temperature limitation of
assimilation, maintenance respiration, and a temperature-sum driven shift of
partitioning toward fruit. Observations are cumulative fruit dry mass
(kg m^-2) sampled biweekly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .space import SpaceSpec, StateKey, load_yaml, space_from_dict

SIM_PARAM_NAMES = (
    "LAI_max", "SLA", "n_plants",
    "P_max", "alpha_light", "co2_half",
    "T_opt", "T_width", "s_sharp",
    "TS_start", "TS_end", "dev_rate",
    "rg_fruit", "c_maint", "Q10",
)

# One non-identity action per group; the hidden ground truth used to
# synthesize observations is the baseline shifted by this key so that it is
# reachable inside the 1-cycle space.
DEFAULT_TRUTH_KEY: StateKey = (2, 1, 3, 1, 4)

# Initial crop state: leaf, stem, fruit dry mass (kg m^-2), temperature sum.
_W_LEAF0, _W_STEM0, _W_FRUIT0 = 0.05, 0.02, 0.0


@functools.cache
def builtin_space() -> SpaceSpec:
    """The packaged greenhouse space, parsed once per process and shared: it
    is frozen and its tables read-only (overrides use dataclasses.replace)."""
    path = resources.files("gfnadapt").joinpath("data/greenhouse_space_v1.yaml")
    with resources.as_file(path) as p, open(p) as fh:
        return space_from_dict(load_yaml(fh))


@dataclass(frozen=True)
class ContextDataset:
    """One observational context: climate forcing plus dry-mass observations."""

    context_id: int
    days: int
    t_day: np.ndarray     # daytime temperature, degC
    t_24: np.ndarray      # 24h mean temperature, degC
    light: np.ndarray     # daily light integral, mol m^-2 d^-1
    co2: np.ndarray       # ppm
    obs_times: np.ndarray  # 1-based day indices, strictly increasing
    obs_values: np.ndarray  # cumulative fruit dry mass at obs_times

    def __post_init__(self):
        for arr in (self.t_day, self.t_24, self.light, self.co2):
            if len(arr) != self.days:
                raise ValueError("forcing length must equal days")
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite forcing value")
        if len(self.obs_times) == 0:
            raise ValueError("a context needs at least one observation")
        if self.obs_times[0] < 1:
            raise ValueError("the first observation day must be >= 1")
        if np.any(np.diff(self.obs_times) <= 0) or self.obs_times[-1] > self.days:
            raise ValueError("obs_times must be strictly increasing and <= days")
        if len(self.obs_values) != len(self.obs_times):
            raise ValueError("a context needs one obs_value per observation day")
        if np.any(self.obs_values < 0) or np.any(np.diff(self.obs_values) < 0):
            raise ValueError("obs_values must be non-negative and non-decreasing")


def _inhibition(t, t_opt, t_width, s_sharp):
    lo = 1.0 / (1.0 + math.exp(-s_sharp * (t - (t_opt - t_width))))
    hi = 1.0 / (1.0 + math.exp(s_sharp * (t - (t_opt + t_width))))
    return lo * hi


def _check_params(params: Mapping) -> None:
    missing = [n for n in SIM_PARAM_NAMES if n not in params]
    if missing:
        raise ValueError(f"missing simulator parameters: {missing}")


def simulate(params: Mapping[str, float], context: ContextDataset) -> np.ndarray:
    """Cumulative fruit dry mass sampled at the context's obs_times.

    The scalar reference: simulate_batch computes the same recurrence for
    many parameter sets at once and is what scoring runs. The day loop runs
    over Python floats, read from memoryviews of the forcing: the same IEEE
    arithmetic as numpy's float64 scalars at a fraction of their cost. It
    stops after the last observation day, as no later day changes one."""
    _check_params(params)

    lai_max = params["LAI_max"]
    sla = params["SLA"]
    n_plants = params["n_plants"]
    p_max = params["P_max"]
    alpha = params["alpha_light"]
    co2_half = params["co2_half"]
    t_opt = params["T_opt"]
    t_width = params["T_width"]
    s_sharp = params["s_sharp"]
    ts_start = params["TS_start"]
    ts_end = params["TS_end"]
    dev_rate = params["dev_rate"]
    rg_fruit = params["rg_fruit"]
    c_maint = params["c_maint"]
    q10 = params["Q10"]

    t_day = memoryview(context.t_day)
    t_24 = memoryview(context.t_24)
    light = memoryview(context.light)
    co2 = memoryview(context.co2)

    w_l, w_s, w_f = _W_LEAF0, _W_STEM0, _W_FRUIT0
    ts = 0.0
    n_days = int(context.obs_times[-1])
    fruit = np.empty(n_days)
    for d in range(n_days):
        lai = min(lai_max, sla * n_plants * w_l)
        f_light = 1.0 - math.exp(-0.7 * lai)
        f_co2 = co2[d] / (co2[d] + co2_half)
        h = _inhibition(t_day[d], t_opt, t_width, s_sharp) * _inhibition(
            t_24[d], t_opt, t_width, s_sharp
        )
        assim = p_max * (1.0 - math.exp(-alpha * light[d] / p_max)) * f_light * f_co2 * h
        maint = c_maint * (w_f + w_l + w_s) * q10 ** ((t_24[d] - 25.0) / 10.0)
        ts += dev_rate * max(0.0, t_24[d] - 10.0)
        if ts < ts_start:
            p_f = 0.0
        elif ts < ts_end:
            p_f = rg_fruit * (ts - ts_start) / (ts_end - ts_start)
        else:
            p_f = rg_fruit
        net = max(0.0, assim - maint)
        w_f += p_f * net
        w_l += 0.7 * (1.0 - p_f) * net
        w_s += 0.3 * (1.0 - p_f) * net
        fruit[d] = w_f
    return fruit[context.obs_times - 1]


# Rows at most of every plane an array pass allocates, each plane one
# float64 per context, about 0.13 MiB at 6 contexts: rewards.TerminalScorer.
# raw_losses hands simulate_batch passes of at most SIM_CELLS consecutive
# keys, and a block of days holds at most SIM_CELLS cells, its consecutive
# days times the distinct rows of the widest series or factor in the pass,
# p_f's three stacked coefficients counting three times and the
# inhibition's two planes twice. A 1000-key batch on the 2-cycle space
# peaks near 1.47 MiB with its 0.55 MiB of outputs, 0.92 MiB besides them
# (tracemalloc).
SIM_CELLS = 16 * 180


def simulate_batch(
    params: Mapping[str, np.ndarray], contexts: Sequence[ContextDataset]
) -> np.ndarray:
    """simulate for N parameter sets at once, given as one length-N column per
    parameter; returns an (N, contexts, observations) array. Every context
    must share one day grid: the same days and obs_times.

    The keys run as one array pass, whatever their number: scoring
    (rewards.TerminalScorer.raw_losses) hands it at most SIM_CELLS keys at a
    time, so that every plane of a pass holds at most SIM_CELLS rows. Three
    day series do not depend on crop state: assimilation at full light
    cover, the maintenance rate and p_f's growth coefficients. Each is
    computed once per distinct row of its own parameters among the keys,
    rows counting as one only when bit-identical, and each key reads its
    series rows' values through _by_key. A series of two factors computes
    each once per distinct row of the factor's own parameters among the
    series rows and gathers them per series row (_rows_of): assimilation as
    ((light · co2) · inhibition(t_day)) · inhibition(t_24), and p_f's
    coefficients as the fruit share over the temperature sum, which carries
    from block to block per row. Factors and series run in blocks of
    consecutive days that keep the widest of them within SIM_CELLS cells,
    p_f's three planes counting three times and the inhibition's two twice,
    and a block's are released before the next block's are made. Only the
    crop-state update runs per key, day by day, on one stacked (fruit, leaf,
    stem) array grown by p_f's coefficients times the day's net
    assimilation, the day's arithmetic written into two buffers allocated
    once, its constants converted to float64 arrays once and its outputs
    passed positionally: the day loop's cost is numpy's per-call overhead.
    It stops after the last observation day.

    Rows agree with simulate up to rounding (the hoisted day series multiply
    in another order) and are bit-identical whatever the rest of the batch.
    Non-finite values are returned, not raised.
    """
    _check_params(params)
    grid = contexts[0]
    for c in contexts[1:]:
        # the contexts of generate_contexts share one obs_times array
        same_obs = c.obs_times is grid.obs_times or np.array_equal(c.obs_times, grid.obs_times)
        if c.days != grid.days or not same_obs:
            field = "days" if c.days != grid.days else "obs_times"
            raise ValueError(f"context {c.context_id} has other {field} than context "
                             f"{grid.context_id}; contexts must share one day grid")

    def columns(*names):
        return np.array([np.asarray(params[n], dtype=float) for n in names])

    # each series over its distinct rows, then each factor of two over its
    # own among the series rows
    (light_p, inhib_p), assim_inv = _distinct(columns("P_max", "alpha_light", "co2_half"),
                                              columns("T_opt", "T_width", "s_sharp"))
    (maint_p,), maint_inv = _distinct(columns("c_maint", "Q10"))
    (dev_p, share_p), coef_inv = _distinct(columns("dev_rate"),
                                           columns("TS_start", "TS_end", "rg_fruit"))
    assim_rows, coef_rows = light_p.shape[1], dev_p.shape[1]
    (light_p,), light_of = _distinct(light_p)
    (inhib_p,), inhib_of = _distinct(inhib_p)
    (dev_p,), dev_of = _distinct(dev_p)
    # a factor has at most its series' rows, but the inhibition has two planes
    widest = max(assim_rows, 2 * inhib_p.shape[1], maint_p.shape[1], 3 * coef_rows)
    n_contexts = len(contexts)
    if not widest:  # no keys
        return np.empty((0, n_contexts, len(grid.obs_times)))
    block = max(1, SIM_CELLS // widest)
    # the factors' columns of more than one row repeated over the contexts,
    # like the keys' below: a (days, rows, contexts) operand then meets its
    # parameters in one inner loop per day, not one per row. One row meets a
    # whole block in one inner loop as it is.
    light_p, inhib_p, maint_p, dev_p, share_p = (
        p[:, :, None] if p.shape[1] == 1 else np.repeat(p[:, :, None], n_contexts, axis=2)
        for p in (light_p, inhib_p, maint_p, dev_p, share_p))
    # t_day, t_24, light and co2 as one (4, days, 1, contexts) array, each
    # field to broadcast against the parameter columns
    forcing = np.stack([[c.t_day, c.t_24, c.light, c.co2] for c in contexts], axis=-1)[:, :, None]
    obs_days = (grid.obs_times - 1).tolist()
    n_days = obs_days[-1] + 1
    lai_max, sla, n_plants = columns("LAI_max", "SLA", "n_plants")[:, :, None]
    # the keys' columns repeated over the contexts: a ufunc whose operands
    # share one shape skips broadcasting's set-up, most of a small day's cost
    lai_max = np.repeat(lai_max, n_contexts, axis=1)
    sla_n = np.repeat(sla * n_plants, n_contexts, axis=1)
    out = np.empty((len(lai_max), n_contexts, len(obs_days)))
    w = np.empty((3, len(lai_max), n_contexts))
    w[0], w[1], w[2] = _W_FRUIT0, _W_LEAF0, _W_STEM0
    w_f, w_l, w_s = w
    net, mass = np.empty((2, *w_f.shape))
    zero, one, extinction = np.array(0.0), np.array(1.0), np.array(-0.7)
    k, ts_last = 0, None
    with np.errstate(all="ignore"):  # overflow shows as a non-finite value
        for lo in range(0, n_days, block):
            t_day, t_24, light, co2 = forcing[:, lo : min(n_days, lo + block)]
            assim = _assim_max(_light_co2(light_p, light, co2), light_of,
                               _inhibition_planes(inhib_p, t_day, t_24), inhib_of)
            maint = _maint_rate(maint_p, t_24)
            ts, ts_last = _temp_sum(dev_p, t_24, ts_last)
            coef = _growth_coefficients(share_p, _rows_of(ts, dev_of))
            assim_of, maint_of, coef_of = (
                _by_key(assim, assim_inv), _by_key(maint, maint_inv), _by_key(coef, coef_inv))
            for i in range(len(t_24)):
                assim_d, maint_d, coef_d = assim_of(i), maint_of(i), coef_of(i)
                # fmin/fmax pass over NaN like Python's min/max do in simulate
                np.multiply(sla_n, w_l, net)
                np.fmin(lai_max, net, net)  # lai
                np.multiply(extinction, net, net)
                np.exp(net, net)
                np.subtract(one, net, net)  # f_light
                np.multiply(assim_d, net, net)
                np.add(w_f, w_l, mass)  # w_f + w_l + w_s, in simulate's order
                np.add(mass, w_s, mass)
                np.multiply(mass, maint_d, mass)
                np.subtract(net, mass, net)
                np.fmax(zero, net, net)
                np.multiply(coef_d, net, coef_d)
                np.add(w, coef_d, w)
                if lo + i == obs_days[k]:
                    out[:, :, k] = w_f
                    k += 1
                del assim_d, maint_d, coef_d  # freed before the next day's are gathered
            del assim, maint, ts, coef, assim_of, maint_of, coef_of  # freed before the next block
    return out


def _distinct(*cols):
    """Each of cols, (params, rows) parameter columns of the same rows, over
    the distinct rows of all of them together, and the position among those
    of each row, or None when no row repeats. Rows count as one only when
    bit-identical, in np.unique's order."""
    n = cols[0].shape[1]
    if n > 1:  # one key, as TPE scores them, has nothing to sort
        rows = np.ascontiguousarray(np.concatenate(cols).T)
        void = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, first, inv = np.unique(void, return_index=True, return_inverse=True)
        if len(first) < n:  # numpy 2.0 and 2.1 shape inv like the input
            return [c[:, first] for c in cols], inv.reshape(-1)
    return cols, None


def _rows_of(factor, of):
    """factor's rows gathered along its row axis, one per series row: factor
    itself when of is None."""
    return factor if of is None else factor.take(of, axis=-2)


def _light_co2(p, light, co2):
    """simulate's light-and-CO2 factor of assimilation over a block of days,
    a (days, rows, contexts) array from p, its parameter columns as (rows,
    contexts) arrays ((1, 1) for one row), and the block's forcing:
    p_max * (1 - exp(-alpha * light / p_max)) * co2 / (co2 + co2_half),
    computed in place."""
    p_max, alpha, co2_half = p
    factor = np.multiply(-alpha, light)
    factor /= p_max
    np.exp(factor, out=factor)
    np.subtract(1.0, factor, out=factor)
    factor *= p_max
    f_co2 = np.add(co2, co2_half)
    np.divide(co2, f_co2, out=f_co2)
    factor *= f_co2
    return factor


def _inhibition_planes(p, t_day, t_24):
    """simulate's _inhibition at t_day and at t_24 over a block of days, a
    (2, days, rows, contexts) array from the inhibition columns, like
    _light_co2."""
    t_opt, t_width, s_sharp = p
    planes = np.empty((2, len(t_day), len(t_opt), t_day.shape[-1]))
    hi = np.empty(planes.shape[1:])
    edges = ((t_opt - t_width, -s_sharp), (t_opt + t_width, s_sharp))
    for lo, t in zip(planes, (t_day, t_24)):
        for part, (edge, sign) in zip((lo, hi), edges):
            np.subtract(t, edge, out=part)
            part *= sign
            np.exp(part, out=part)
            part += 1.0
            np.divide(1.0, part, out=part)
        lo *= hi
    return planes


def _assim_max(light_co2, light_of, inhibition, inhibition_of):
    """simulate's assimilation at full light cover over a block of days, a
    (days, rows, contexts) array over the assimilation series' rows,
    assembled from its factors' rows: ((light · co2) · inhibition(t_day)) ·
    inhibition(t_24), each factor's rows gathered per series row by light_of
    and inhibition_of (None: one factor row per series row)."""
    assim = _rows_of(light_co2, light_of)
    at_t_day, at_t_24 = _rows_of(inhibition, inhibition_of)
    assim *= at_t_day
    assim *= at_t_24
    return assim


def _maint_rate(p, t_24):
    """simulate's maintenance per unit mass over a block of days, like
    _light_co2 from the maintenance columns."""
    c_maint, q10 = p
    rate = q10 ** ((t_24 - 25.0) / 10.0)
    rate *= c_maint
    return rate


def _temp_sum(p, t_24, ts_before):
    """(ts, last) over a block of days from the development-rate column: ts,
    a (days, rows, contexts) array, is simulate's temperature sum on each
    day, and last its copy on the block's last day, which the next block
    continues from as ts_before (None before the first block)."""
    (dev_rate,) = p
    ts = dev_rate * np.maximum(0.0, t_24 - 10.0)
    if ts_before is not None:  # the same sequential sum as over all days at once
        ts[0] += ts_before
    np.cumsum(ts, axis=0, out=ts)
    return ts, ts[-1].copy()  # not a view that keeps the block alive


def _growth_coefficients(p, ts):
    """The growth coefficients over a block of days from the fruit-share
    columns and ts, the temperature sum on the same rows: a (days, 3, rows,
    contexts) array of the growth coefficients of fruit, leaf and stem,
    [p_f, 0.7 * (1 - p_f), 0.3 * (1 - p_f)] as simulate multiplies them,
    p_f by simulate's branches."""
    ts_start, ts_end, rg_fruit = p
    coef = np.empty((len(ts), 3, *ts.shape[1:]))
    p_f, leaf, stem = coef.transpose(1, 0, 2, 3)
    np.divide(rg_fruit * (ts - ts_start), ts_end - ts_start, out=p_f)  # in place over the ramp
    np.copyto(p_f, rg_fruit, where=~(ts < ts_end))
    np.copyto(p_f, 0.0, where=ts < ts_start)
    np.subtract(1.0, p_f, out=stem)
    np.multiply(0.7, stem, out=leaf)
    stem *= 0.3
    return coef


def _by_key(series, inv):
    """A function from a day of a block to that day of its series per key:
    the day's row itself when inv is None (every key has a row of its own),
    else the day gathered per key by one take along its row axis. A day's
    array is not read again once the next is asked for, so the caller may
    write into it."""
    if inv is None:
        return series.__getitem__
    return lambda i: series[i].take(inv, axis=-2)


# Regime table: (T24 mean, T24 seasonal amplitude, day/night split, light
# base, light amplitude, CO2 level). Chosen so the six compartments differ
# in mean temperature or mean CO2.
_REGIMES = (
    (19.0, 2.0, 4.0, 25.0, 10.0, 420.0),
    (21.0, 1.5, 5.0, 28.0, 8.0, 420.0),
    (23.0, 1.0, 6.0, 30.0, 6.0, 600.0),
    (20.0, 2.5, 4.5, 22.0, 12.0, 800.0),
    (22.0, 2.0, 5.5, 26.0, 9.0, 1000.0),
    (18.0, 3.0, 3.5, 32.0, 11.0, 600.0),
)
N_CONTEXTS = len(_REGIMES)  # contexts built by generate_contexts


def generate_contexts(seed: int, days: int = 180) -> list[ContextDataset]:
    """Six synthetic climate regimes with biweekly observation times."""
    rng = np.random.default_rng(seed)
    obs_times = np.arange(14, days + 1, 14)
    season = np.sin(np.linspace(0.0, np.pi, days))
    contexts = []
    for cid, (t_mean, t_amp, split, i_base, i_amp, co2_level) in enumerate(
        _REGIMES, start=1
    ):
        t_24 = t_mean + t_amp * season + rng.normal(0.0, 0.6, days)
        t_day = t_24 + split + rng.normal(0.0, 0.4, days)
        light = np.clip(i_base + i_amp * season + rng.normal(0.0, 2.0, days), 1.0, None)
        co2 = np.clip(co2_level + rng.normal(0.0, 20.0, days), 250.0, None)
        contexts.append(
            ContextDataset(
                context_id=cid,
                days=days,
                t_day=t_day,
                t_24=t_24,
                light=light,
                co2=co2,
                obs_times=obs_times,
                obs_values=np.zeros(len(obs_times)),
            )
        )
    return contexts


def synthesize_observations(
    contexts: Sequence[ContextDataset],
    truth: Mapping[str, float],
    noise_rel: float,
    seed: int,
) -> list[ContextDataset]:
    """Replace obs_values with the truth trajectory under multiplicative
    noise, refused where the noise takes an observation outside the float64
    range."""
    if noise_rel < 0:
        raise ValueError("noise_rel must be >= 0")
    rng = np.random.default_rng(seed)
    out = []
    for ctx in contexts:
        traj = simulate(truth, ctx)
        with np.errstate(over="ignore", invalid="ignore"):
            noisy = traj * (1.0 + noise_rel * rng.standard_normal(len(traj)))
        noisy = np.maximum.accumulate(np.clip(noisy, 0.0, None))
        if not np.isfinite(noisy).all():  # NaN where 0 meets an infinite noise
            raise ValueError(f"data.noise_rel={noise_rel:g} takes an observation of context "
                             f"{ctx.context_id} outside the float64 range")
        out.append(replace(ctx, obs_values=noisy))
    return out

