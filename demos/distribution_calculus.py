"""One distribution type, three representations: atoms, densities, and raw
samples, with a shared calculus of CDFs, quantiles, moments, convolution,
and exact normalized sums."""

import io

import numpy as np

from cltlab import (
    Density,
    Discrete,
    cdf,
    convolve,
    fair_die,
    iid_sum_normalized,
    load_discrete,
    mean,
    normal,
    quantile,
    sample,
    save_discrete,
    standard_normal,
    variance,
)


def main():
    die = fair_die()
    gauss = normal(1.0, 4.0)
    print("== shared calculus across representations ==")
    print(f"die:    mean {mean(die)}, variance {variance(die):.6f}")
    print(f"normal(1,4): mean {mean(gauss):.6f}, variance {variance(gauss):.6f}")
    print(f"die cdf at 4:          {cdf(die, 4.0):.6f}")
    print(f"normal cdf at 1:       {cdf(gauss, 1.0):.6f}")
    print(f"standard normal q(0.975) = {quantile(standard_normal(), 0.975):.6f}")

    print()
    print("== exact convolution on atoms ==")
    two_dice = convolve(die, die)
    print("P(sum of two dice = k):")
    for x, w in zip(two_dice.points, two_dice.weights):
        print(f"  k={x:4.0f}: {w:.6f}")

    print()
    print("== convolution of densities: U * U, the triangle on (0, 2) ==")
    uniform = Density(lambda x: 1.0, (0.0, 1.0))
    triangle = convolve(uniform, uniform)
    print(f"cdf at 0.5: {cdf(triangle, 0.5):.15f}  vs  closed form 1/8 = {0.125:.15f}")
    print(f"variance:   {variance(triangle):.15f}  vs  closed form 1/6 = {1.0 / 6.0:.15f}")

    print()
    print("== exact law of a normalized sum of 64 coin flips ==")
    coin = Discrete.from_pairs([(-1.0, 0.5), (1.0, 0.5)])
    s64 = iid_sum_normalized(coin, 64)
    print(f"{s64.points.size} atoms, mean {mean(s64):+.2e}, variance {variance(s64):.6f}")
    print(f"P(S <= 0) = {cdf(s64, 0.0):.6f}  vs  normal 0.5 plus half the central atom")

    print()
    print("== sampling is reproducible ==")
    xs = sample(die, 10, seed=42)
    ys = sample(die, 10, seed=42)
    print("seed 42:", xs.samples.astype(int).tolist())
    print("again:  ", ys.samples.astype(int).tolist())

    e = sample(gauss, 10_000, seed=1)
    print(f"empirical mean of 10k normal(1,4) draws: {mean(e):.4f}")

    print()
    print("== plain-text persistence ==")
    buf = io.StringIO()
    save_discrete(two_dice, buf)
    text = buf.getvalue()
    print(text.splitlines()[0], "...", f"({len(text.splitlines())} lines)")
    back = load_discrete(io.StringIO(text))
    print("round trip exact:", np.array_equal(back.points, two_dice.points)
          and np.array_equal(back.weights, two_dice.weights))


if __name__ == "__main__":
    main()
