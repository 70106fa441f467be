"""From a window of vibration data to a 64x64 time-frequency image.

Wavelet packet decomposition splits the signal into 8 frequency subbands;
each subband becomes an 8-row block of the image. A pure tone lights up
exactly one block, which makes the layout easy to eyeball in ASCII.
"""

import numpy as np

from bearingrul import wavelets as wv
from bearingrul.features import wpd_image

n = 4096
t = np.arange(n)

for freq_fraction in (0.03, 0.17, 0.42):
    signal = np.sin(2 * np.pi * freq_fraction * t) + 0.05 * np.random.default_rng(1).standard_normal(n)
    energies = (wv.wpd(signal, 3) ** 2).sum(axis=1)  # one row per subband
    img = wpd_image(signal)
    print(f"\ntone at {freq_fraction:.2f} fs  ->  dominant subband "
          f"{int(np.argmax(energies))} (natural order)")
    shades = " .:-=+*#%@"
    for block in range(8):
        row_mean = np.abs(img[8 * block:8 * (block + 1)] - 0.5).mean()
        bar = shades[min(9, int(row_mean * 40))] * 40
        print(f"  band {block}: {bar}")

print("\nenergy is conserved through the tree:")
x = np.random.default_rng(2).standard_normal(2560)
print("  input:", round(float((x ** 2).sum()), 6),
      " subbands:", round(float((wv.wpd(x, 3) ** 2).sum()), 6))
